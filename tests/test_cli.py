"""Configuration plumbing and the four CLI commands."""

import argparse
import csv
import glob
import hashlib
import io
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
import yaml

import specjac
import specjac.cli as cli_mod
import specjac.decoder as decoder_mod
from specjac.cli import (
    EXIT_CONFIG, EXIT_IO, EXIT_OK, build_parser, main, resolve_config, write_csv, write_reports,
)
from specjac.config import build_config, convert, load_config_file
from specjac.errors import ConfigError
from specjac.model import TargetSampler
from specjac import oracle


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    def test_non_utf8_file_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"model:\n  vocab_size: 4 # caf\xe9\n")
        with pytest.raises(ConfigError, match="latin1.yaml"):
            load_config_file(str(path))
        assert main(["generate", "--config", str(path)]) == EXIT_CONFIG
        assert "latin1.yaml" in capsys.readouterr().err

    def test_empty_section_sets_nothing(self, tmp_path):
        # every entry commented out: YAML reads the section as null
        path = tmp_path / "empty.yaml"
        path.write_text("sampling:\n#  temperature: 0.5\nrun:\n  trials: 3\n")
        assert load_config_file(str(path)) == {"sampling": {}, "run": {"trials": 3}}
        assert build_config(load_config_file(str(path))) == build_config(
            overrides={"run.trials": 3}
        )
        for other in ("3", "[]", "''"):
            path.write_text(f"sampling: {other}\n")
            with pytest.raises(ConfigError, match="sampling: section must be a mapping"):
                load_config_file(str(path))

    @pytest.mark.parametrize("text, key", [
        ("run: {seed: 1, seed: 2}\n", "'seed'"),
        # a section given twice would otherwise lose its first copy whole
        ("run:\n  seed: 1\nrun:\n  trials: 5\n", "'run'"),
    ])
    def test_repeated_key_exits_2_naming_the_file_and_key(self, text, key, tmp_path, capsys):
        path = tmp_path / "twice.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"(?s)twice.yaml: .*duplicate key {key}"):
            load_config_file(str(path))
        assert main(["generate", "--config", str(path), "--run.trials", "2"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "twice.yaml" in err and key in err

    def test_merge_key_override_is_not_a_repeat(self, tmp_path):
        path = tmp_path / "merged.yaml"
        path.write_text("base: &b {seed: 1, trials: 5}\nrun:\n  <<: *b\n  seed: 3\n")
        assert load_config_file(str(path))["run"] == {"seed": 3, "trials": 5}

    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(ROOT, "configs", "*.yaml"))
        + glob.glob(os.path.join(ROOT, "benchmarks", "configs", "*.yaml"))
    ))
    def test_repo_configs_load_as_safe_loader_reads_them(self, path):
        with open(path, encoding="utf-8") as handle:
            expected = yaml.load(handle, Loader=yaml.SafeLoader)
        assert load_config_file(path) == expected

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

    @pytest.mark.parametrize("alias, path, first, last", [
        ("--seed", "--run.seed", "5", "7"),
        ("--out", "--output.path", "a.csv", "b.csv"),
        ("--format", "--output.format", "csv", "report"),
    ])
    def test_alias_and_dotted_path_set_one_field(self, alias, path, first, last):
        section, key = path[2:].split(".")

        def field(*argv):
            # the one command that takes --format
            config = resolve_config(build_parser().parse_args(["verify-lossless", *argv]))
            return getattr(getattr(config, section), key)

        assert field(alias, first) == field(path, first) == convert(path[2:], first)
        # both given, the later one on the command line wins, whichever it is
        assert field(alias, first, path, last) == convert(path[2:], last)
        assert field(path, first, alias, last) == convert(path[2:], last)


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
    ["generate", *CHUNKED, "--decode.coupler", "gumbel"],
    ["generate", *CHUNKED, "--decode.coupler", "gumbel", "--decode.redraft", "true"],
    ["sweep", *CHUNKED, "--axis", "coupler", "--values", "vanilla,independent,maximal,gumbel"],
], ids=["generate", "generate-redraft", "generate-gumbel", "generate-gumbel-redraft",
        "sweep-coupler"])
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


class TestAtomicWriteTempFile:
    """The temporary file of a write is the call's own: a file of another
    name's shape neither blocks the write nor is removed by it."""

    @staticmethod
    def _pairs(out):
        return main(["coupling-stats", "--pairs", "2", "--trials", "10", "--out", str(out)])

    def test_leftover_pid_temp_file_is_neither_a_clash_nor_removed(self, tmp_path):
        out = tmp_path / "pairs.csv"
        leftover = tmp_path / f"pairs.csv.{os.getpid()}.tmp"
        leftover.write_bytes(b"an interrupted run's\n")
        assert self._pairs(out) == EXIT_OK
        assert out.read_bytes().startswith(b"pair,")
        assert leftover.read_bytes() == b"an interrupted run's\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.csv", leftover.name]

    def test_name_clash_exits_3_and_keeps_the_clashing_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr("secrets.token_hex", lambda nbytes: "clash")
        out = tmp_path / "pairs.csv"
        clash = tmp_path / f"pairs.csv.{os.getpid()}.clash.tmp"
        clash.write_bytes(b"not ours\n")
        assert self._pairs(out) == EXIT_IO
        assert clash.read_bytes() == b"not ours\n"
        assert [p.name for p in tmp_path.iterdir()] == [clash.name]

    def test_output_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "rows.csv"
        umask = os.umask(0o027)
        try:
            write_csv(str(out), ("k",), [(1,)])
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


class TestVerifyLossless:
    def test_desk_run_builds_each_target_law_row_once(self, tmp_path, monkeypatch):
        # the enumeration and every decode share one table: the uniform row
        # plus the 1 + 4 + 16 contexts of V=4, order 2, n=5
        built, add_rows = [], TargetSampler._add_rows

        def counting(self, block):
            built.append(len(block))
            return add_rows(self, block)

        monkeypatch.setattr(TargetSampler, "_add_rows", counting)
        code = main([
            "verify-lossless", "--config", os.path.join(ROOT, "configs", "desk.yaml"),
            "--run.trials", "1000", "--out", str(tmp_path / "reports.csv"),
        ])
        assert code == EXIT_OK
        assert sum(built) == 22

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

    @pytest.mark.parametrize("argv", [
        ["--model.vocab_size", "16", "--decode.length", "3"],
        ["--model.vocab_size", "8", "--model.context_order", "3", "--decode.length", "4"],
    ])
    def test_law_outgrowing_the_first_row_table(self, argv, tmp_path):
        # the contexts new at the last position do not fit the sampler's first 256-row table
        out = tmp_path / "reports.csv"
        assert main(["verify-lossless", *argv, "--run.trials", "2000", "--out", str(out)]) == EXIT_OK
        assert all(row["passed"] == "true" for row in _read_csv(out))

    @pytest.mark.parametrize("trials", ["1", "223"])
    def test_run_too_small_to_test_exits_2(self, trials, tmp_path, capsys):
        # the desk TV threshold is 14.93 at 1 trial and 1.000 at 223: a TV never exceeds 1
        out = tmp_path / "reports.csv"
        assert main(["verify-lossless", "--run.trials", trials, "--out", str(out)]) == EXIT_CONFIG
        assert "run.trials" in capsys.readouterr().err
        assert not out.exists()

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
        # finite, but the logit spread softmax subtracts overflows
        ("--sharpness-range", "1.7e308 1.7e308"), ("--sharpness-range", "1e308 1e308"),
    ])
    def test_out_of_range_flags_exit_2(self, flag, value, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        argv = ["coupling-stats", flag, *value.split(), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_large_finite_sharpness_runs(self, tmp_path):
        out = tmp_path / "pairs.csv"
        code = main([
            "coupling-stats", "--pairs", "4", "--vocab", "4", "--trials", "1000",
            "--sharpness-range", "1e300", "1e300", "--out", str(out),
        ])
        assert code == EXIT_OK
        for row in _read_csv(out):
            assert all(np.isfinite(float(v)) for v in row.values())

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

    def test_rejected_value_decodes_nothing(self, tmp_path, monkeypatch, capsys):
        calls, decode = [], cli_mod.decode_trials

        def counting(*args, **kwargs):
            calls.append(args)
            return decode(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "decode_trials", counting)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "L", "--values", "4,0", "--run.trials", "3", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "decode.window: must be >= 1" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


# guided sampling, so model.cfg_seed acts, and the default maximal coupler,
# so decode.window and decode.redraft act
TINY = ["--model.vocab_size", "3", "--decode.length", "3", "--sampling.cfg_scale", "1"]
OVERRIDE_BASES = {
    "generate": ["generate", *TINY, "--run.trials", "20"],
    "verify-lossless": ["verify-lossless", *TINY, "--run.trials", "300"],
    "coupling-stats": ["coupling-stats", "--pairs", "2", "--vocab", "4", "--trials", "100"],
    "sweep": ["sweep", *TINY, "--run.trials", "20", "--axis", "L", "--values", "1,2"],
}
# a valid value of each field that differs from every base and default
OVERRIDE_VALUES = {
    "model.vocab_size": "4", "model.context_order": "1", "model.flatness": "0.5",
    "model.seed": "3", "model.cfg_seed": "5",
    "sampling.temperature": "0.5", "sampling.top_k": "2", "sampling.top_p": "0.5",
    "sampling.cfg_scale": "2",
    "decode.length": "4", "decode.window": "2", "decode.coupler": "gumbel",
    "decode.redraft": "true",
    "run.trials": "30", "run.seed": "7", "output.format": "report",
}


def _dotted_options(command):
    """The config fields whose dotted-path override ``command`` accepts."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [s[2:] for a in sub.choices[command]._actions for s in a.option_strings if "." in s]


@pytest.mark.parametrize("command", list(OVERRIDE_BASES))
def test_no_accepted_override_is_a_no_op(command, tmp_path):
    # each override must change the exit status or, the fingerprint aside,
    # the output; an output.path override must move the file
    out, moved = tmp_path / "out", tmp_path / "moved"

    def run(*extra):
        try:
            code = main([*OVERRIDE_BASES[command], "--out", str(out), *extra])
        except SystemExit as exc:
            code = exc.code
        if not out.exists():
            return code, None
        rows = list(csv.reader(io.StringIO(out.read_text())))
        out.unlink()
        if "fingerprint" in rows[0]:
            column = rows[0].index("fingerprint")
            for row in rows[1:]:
                row[column] = ""
        return code, rows

    base = run()
    assert base[1] is not None
    no_ops = []
    for path in _dotted_options(command):
        if path == "output.path":
            run("--output.path", str(moved))
            acted = moved.exists()
        else:
            acted = run(f"--{path}", OVERRIDE_VALUES[path]) != base
        if not acted:
            no_ops.append(path)
    assert no_ops == []


@pytest.mark.parametrize("argv, option", [
    (["coupling-stats", "--pairs", "1", "--vocab", "4", "--run.trials", "5"], "--run.trials 5"),
    (["verify-lossless", "--decode.coupler", "gumbel"], "--decode.coupler gumbel"),
    (["generate", "--format", "report"], "--format report"),
], ids=["coupling-stats", "verify-lossless", "generate"])
def test_unread_override_exits_2_naming_it(argv, option, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_an_override_of_its_axis(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "decode_trials", lambda *args: pytest.fail("decoded"))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", "flatness", "--values", "1,2", "--model.flatness", "9"]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert "model.flatness: set by --axis flatness" in capsys.readouterr().err
    assert not out.exists()


def _child(*args):
    """Run ``python *args`` in a child that imports the specjac under test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(specjac.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entrypoint_smoke(tmp_path):
    out = tmp_path / "gen.csv"
    proc = _child("-m", "specjac.cli", "generate", "--run.trials", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "generate:" in proc.stderr


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats is most of the package's import time and memory; the
    # chi-square tail comes from scipy.special
    proc = _child("-c", "import sys, specjac.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# sha256 of ``specjac [command] --help`` at COLUMNS=80
HELP_DIGESTS = {
    None: "36df894f1314d70f35507073fb6e05c4dfc4bba6040a3a9dbd135d7ffeb1b04f",
    "generate": "ce0783e126c99e3a56525cace62150b723e20e78217218439f57a46d7d108c54",
    "verify-lossless": "f49668f91634a065add173ba682005c5b6ea4eb3149fe63a3a7ea5195d7e9ee3",
    "coupling-stats": "ba304dd08582489ce515924d29b962f6e523fc28f4455cf93061ccf53c026c78",
    "sweep": "875b362a0a6511836313b4e10d9fbcfe70be93a8422f14e049be6023b733ea0d",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[command], text
