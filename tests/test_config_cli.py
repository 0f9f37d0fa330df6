import os

import pytest

from qvolt import cli
from qvolt.config import ConfigError, load_config, parse_number, parse_quantity
from qvolt.signal import AcquisitionMode
from qvolt.sources import SourceKind

MINIMAL_CFG = """\
[run]
seed = 99

[params]
eps_gamma = 0
vs = -0.306 nV

[source.c1]
kind = classical
count = 40

[source.q2]
kind = qubit
fidelity = 0.99
count = 20

[analysis]
mc_realizations = 200
"""


def write_cfg(tmp_path, text=MINIMAL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestQuantityParsing:
    def test_voltage_units(self):
        assert parse_quantity("3 V", "voltage") == 3.0
        assert parse_quantity("-0.306 nV", "voltage") == pytest.approx(-0.306e-9)
        assert parse_quantity("1.8e-4 V", "voltage") == pytest.approx(1.8e-4)

    def test_time_and_frequency_units(self):
        assert parse_quantity("1 ms", "time") == pytest.approx(1e-3)
        assert parse_quantity("2 s", "time") == 2.0
        assert parse_quantity("1 MHz", "frequency") == 1e6

    def test_missing_unit_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("3", "voltage")

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("3 s", "voltage")
        with pytest.raises(ConfigError):
            parse_quantity("1 nV", "time")

    def test_dimensionless_rejects_units(self):
        assert parse_number("0.99") == 0.99
        with pytest.raises(ConfigError):
            parse_number("0.99 V")

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"])
    def test_number_rejects_non_finite(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_number(text)

    @pytest.mark.parametrize(
        "text, kind",
        [("1e999 V", "voltage"), ("-1e999 nV", "voltage"), ("1e308 MHz", "frequency"),
         ("nan V", "voltage"), ("inf s", "time")],
    )
    def test_quantity_rejects_non_finite(self, text, kind):
        # "1e308 MHz" overflows only after scaling to Hz
        with pytest.raises(ConfigError):
            parse_quantity(text, kind)


class TestLoadConfig:
    def test_minimal_config(self, tmp_path):
        config = load_config(write_cfg(tmp_path))
        assert config.seed == 99
        assert config.params.vs == pytest.approx(-0.306e-9)
        assert [s.id for s in config.sources] == ["c1", "q2"]
        assert config.sources[0].kind is SourceKind.CLASSICAL
        assert config.acquisition.mode is AcquisitionMode.FAST
        assert config.analysis.mc_realizations == 200

    def test_full_scale_config_ships_with_repo(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "null.cfg")
        config = load_config(path)
        assert sum(s.count for s in config.sources) == 100717
        assert config.acquisition.filter_tau == pytest.approx(1e-3)
        assert config.acquisition.carrier_freq == pytest.approx(1e6)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL_CFG + "\n[acquisition]\nbanana = 1 V\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unitless_voltage_rejected(self, tmp_path):
        bad = MINIMAL_CFG.replace("vs = -0.306 nV", "vs = -0.306e-9")
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, bad))

    def test_zero_sources_rejected(self, tmp_path):
        bad = "\n".join(
            line
            for line in MINIMAL_CFG.splitlines()
            if not line.startswith(("[source", "kind", "count", "fidelity"))
        )
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, bad))

    @pytest.mark.parametrize(
        "old, new",
        [("eps_gamma = 0", "eps_gamma = nan"), ("vs = -0.306 nV", "vs = 1e999 nV"),
         ("mc_realizations = 200", "mc_realizations = inf")],
    )
    def test_non_finite_values_exit_as_config_errors(self, tmp_path, old, new):
        bad = write_cfg(tmp_path, MINIMAL_CFG.replace(old, new))
        with pytest.raises(ConfigError):
            load_config(bad)
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "old, new",
        [("mc_realizations = 200", "mc_realizations = 250.9"),
         ("mc_realizations = 200", "mc_realizations = 200\nn_bins = 2.7")],
    )
    def test_integer_keys_reject_fractions(self, tmp_path, old, new):
        bad = write_cfg(tmp_path, MINIMAL_CFG.replace(old, new))
        with pytest.raises(ConfigError, match="not an integer"):
            load_config(bad)
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_integer_keys_accept_integral_numbers(self, tmp_path):
        text = MINIMAL_CFG.replace("mc_realizations = 200", "mc_realizations = 1e3\nn_bins = 20.0")
        analysis = load_config(write_cfg(tmp_path, text)).analysis
        assert (analysis.mc_realizations, analysis.n_bins) == (1000, 20)
        assert isinstance(analysis.n_bins, int)

    @pytest.mark.parametrize("sid", ["q 2", "q,2"], ids=["space", "comma"])
    def test_source_ids_outside_the_id_alphabet_exit_as_config_errors(self, tmp_path, sid):
        bad = write_cfg(tmp_path, MINIMAL_CFG.replace("[source.q2]", f"[source.{sid}]"))
        with pytest.raises(ConfigError, match="source id"):
            load_config(bad)
        out = str(tmp_path / "out")
        for step in ("generate", "run"):
            assert cli.main([step, "--config", bad, "--out", out]) == cli.EXIT_CONFIG
        assert not os.path.exists(out)

    def test_classical_fidelity_must_be_half(self, tmp_path):
        bad = MINIMAL_CFG.replace(
            "kind = classical\ncount = 40", "kind = classical\nfidelity = 0.9\ncount = 40"
        )
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, bad))


class TestCliCommands:
    def test_generate_writes_bit_files(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        assert os.path.getsize(os.path.join(out, "bits_c1.txt")) > 0
        assert os.path.getsize(os.path.join(out, "bits_q2.txt")) > 0

    def test_generate_is_byte_identical_across_runs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
            with open(os.path.join(out, "bits_c1.txt"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_run_produces_readings_and_key(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "readings.csv")) as fh:
            assert len(fh.readlines()) == 61  # header + 60 readings
        assert os.path.exists(os.path.join(out, "key.csv"))

    def test_run_consumes_pregenerated_bits(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0

    def test_run_refuses_partial_bit_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        os.remove(os.path.join(out, "bits_q2.txt"))
        assert cli.main(["run", "--config", cfg, "--out", out]) == cli.EXIT_CONTRACT
        err = capsys.readouterr().err
        assert "bits_q2.txt" in err and "bits_c1.txt" not in err
        assert not os.path.exists(os.path.join(out, "readings.csv"))

    def test_blinded_summary_refuses_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["run", "--config", cfg, "--out", out])
        code = cli.main(
            [
                "blinded-summary",
                "--config",
                cfg,
                "--out",
                out,
                "--key",
                os.path.join(out, "key.csv"),
            ]
        )
        assert code == cli.EXIT_CONTRACT
        assert "refuses" in capsys.readouterr().err

    def test_blinded_summary_then_unblind_fit(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        assert cli.main(["blinded-summary", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "blinded_summary.txt"))
        assert os.path.exists(os.path.join(out, "histogram_blinded_low.csv"))
        assert cli.main(["unblind-fit", "--config", cfg, "--out", out]) == 0
        for artifact in ("fit.csv", "band.csv", "unblind_report.txt",
                         "histogram_c1_low.csv", "histogram_q2_low.csv"):
            assert os.path.exists(os.path.join(out, artifact))

    def test_report_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["report", "--config", cfg, "--out", out]) == 0
        text = open(os.path.join(out, "report.txt")).read()
        assert "bound" in text

    def test_config_error_exit_code(self, tmp_path):
        bad = write_cfg(tmp_path, MINIMAL_CFG.replace("vs = -0.306 nV", "vs = oops"))
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        code = cli.main(
            ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_CONFIG

    def test_missing_readings_io_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "empty")
        code = cli.main(["blinded-summary", "--config", cfg, "--out", out])
        assert code == cli.EXIT_IO

    def test_mismatched_key_contract_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["run", "--config", cfg, "--out", out])
        # truncate the key: unblinding must refuse
        key_path = os.path.join(out, "key.csv")
        lines = open(key_path).readlines()
        open(key_path, "w").writelines(lines[:-5])
        code = cli.main(["unblind-fit", "--config", cfg, "--out", out])
        assert code == cli.EXIT_CONTRACT

    def test_swapped_readings_rows_contract_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        path = os.path.join(out, "readings.csv")
        with open(path) as fh:
            lines = fh.readlines()
        low = next(i for i, line in enumerate(lines[1:], 1) if line.endswith("sensitive\n")
                   and not line.endswith("insensitive\n"))
        high = next(i for i, line in enumerate(lines[1:], 1) if line.endswith("insensitive\n"))
        lines[low], lines[high] = lines[high], lines[low]
        with open(path, "w") as fh:
            fh.writelines(lines)
        code = cli.main(["unblind-fit", "--config", cfg, "--out", out])
        assert code == cli.EXIT_CONTRACT
        assert "out of order" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "fit.csv"))

    def test_report_blinded_section_equals_blinded_summary(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["report", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "report.txt")) as fh:
            report_text = fh.read()
        # blinded-summary on the readings report wrote gives the report's blinded section
        assert cli.main(["blinded-summary", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "blinded_summary.txt")) as fh:
            blinded = fh.read()
        assert "(threshold 1.0 V)" in blinded
        assert report_text.split("\n\n", 1)[0] + "\n" == blinded
