import dataclasses
import errno
import functools
import glob
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import relaid
from qvolt import blinding, cli, config, files, pipeline, signal
from qvolt.analysis import BoundRule, HistogramResult
from qvolt.config import (
    AnalysisSettings,
    ConfigError,
    RunConfig,
    load_config,
    parse_number,
    parse_quantity,
)
from qvolt.model import NonlinearParams
from qvolt.signal import AcquisitionConfig, AcquisitionMode
from qvolt.sources import BitString, SourceSpec, write_bits

MINIMAL_CFG = """\
[run]
seed = 99

[params]
eps_gamma = 0
vs = -0.306 nV

[source.c1]
fidelity = 0.5
count = 40

[source.q2]
fidelity = 0.99
count = 20

[analysis]
mc_realizations = 200
"""


# every float field of the config dataclasses, each of which must be finite
FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (AcquisitionConfig, NonlinearParams, AnalysisSettings)
    for f in dataclasses.fields(cls)
    if f.type is float
]

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


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
        assert parse_quantity("1 kSa/s", "sample_rate") == 1e3

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
        [("1e999 V", "voltage"), ("-1e999 nV", "voltage"), ("1e308 kSa/s", "sample_rate"),
         ("nan V", "voltage"), ("inf s", "time")],
    )
    def test_quantity_rejects_non_finite(self, text, kind):
        # "1e308 kSa/s" overflows only after scaling to Sa/s
        with pytest.raises(ConfigError):
            parse_quantity(text, kind)


class TestLoadConfig:
    def test_minimal_config(self, tmp_path):
        config = load_config(write_cfg(tmp_path))
        assert config.seed == 99
        assert config.params.vs == pytest.approx(-0.306e-9)
        assert [s.id for s in config.sources] == ["c1", "q2"]
        assert config.acquisition.mode is AcquisitionMode.FAST
        assert config.analysis.mc_realizations == 200

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CONFIGS, "*.cfg"))), ids=os.path.basename
    )
    def test_full_scale_config_ships_with_repo(self, path):
        config = load_config(path)
        assert sum(s.count for s in config.sources) == 100717
        assert config.acquisition.filter_tau == pytest.approx(1e-3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL_CFG + "\n[acquisition]\nbanana = 1 V\n")
        with pytest.raises(ConfigError):
            load_config(path)
        # keys that earlier versions read and no output depended on
        for old, new, section, key in [
            ("eps_gamma = 0", "eps_gamma = 0\nv0 = 0 V", "params", "v0"),
            ("eps_gamma = 0", "eps_gamma = 0\ninterpretation = everett", "params",
             "interpretation"),
            ("[analysis]", "[acquisition]\ncarrier_freq = 1 MHz\n\n[analysis]", "acquisition",
             "carrier_freq"),
            ("[source.q2]", "[source.q2]\nkind = qubit", "source.q2", "kind"),
        ]:
            path = write_cfg(tmp_path, MINIMAL_CFG.replace(old, new, 1), f"{key}.cfg")
            message = f"[{section}] unknown keys: [{key!r}]"
            assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message}\n"

    def test_unitless_voltage_rejected(self, tmp_path):
        bad = MINIMAL_CFG.replace("vs = -0.306 nV", "vs = -0.306e-9")
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, bad))

    def test_zero_sources_rejected(self, tmp_path):
        bad = "\n".join(
            line
            for line in MINIMAL_CFG.splitlines()
            if not line.startswith(("[source", "count", "fidelity"))
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

    @pytest.mark.parametrize("sid", ["q 2", "q,2", "q" * 238],
                             ids=["space", "comma", "238 characters"])
    def test_source_ids_outside_the_id_alphabet_exit_as_config_errors(self, tmp_path, sid):
        bad = write_cfg(tmp_path, MINIMAL_CFG.replace("[source.q2]", f"[source.{sid}]"))
        with pytest.raises(ConfigError, match="source id"):
            load_config(bad)
        out = str(tmp_path / "out")
        for step in ("generate", "run"):
            assert cli.main([step, "--config", bad, "--out", out]) == cli.EXIT_CONFIG
        assert not os.path.exists(out)

    def test_longest_source_id_runs_every_step(self, tmp_path, capsys):
        sid = "q" * 237
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("[source.q2]", f"[source.{sid}]"))
        out = str(tmp_path / "out")
        for step in ("generate", "run", "blinded-summary", "unblind-fit"):
            assert cli.main([step, "--config", cfg, "--out", out]) == 0, capsys.readouterr().err
        assert os.path.exists(os.path.join(out, f"histogram_{sid}_low.csv"))

    @pytest.mark.parametrize(
        "text, words",
        [("seed = 1\n" + MINIMAL_CFG, "no section headers"),
         (MINIMAL_CFG.replace("count = 40", "count = 40\ncount = 41"), "option 'count'"),
         (MINIMAL_CFG + "\n[run]\nseed = 1\n", "section 'run' already exists"),
         (MINIMAL_CFG + "bound_rule = mc-percentile\n", "[analysis] bound_rule"),
         (MINIMAL_CFG + "\n[sources]\ncount = 1\n", "unknown section [sources]"),
         (MINIMAL_CFG + "n_bins = 0\n", "n_bins 0 < 1"),
         (MINIMAL_CFG + "threshold = 1.2.3 V\n", "bad number '1.2.3'"),
         (MINIMAL_CFG + "\n[acquisition]\ncycle_duration = 1e308 s\n",
          "[acquisition] cycle_duration * sample_rate (1e+308 s * 1000.0 Sa/s) must be below "
          "2**63 samples"),
         (MINIMAL_CFG + "\n[acquisition]\ncycle_duration = 1e300 s\nmode = waveform\n",
          "[acquisition] cycle_duration * sample_rate (1e+300 s * 1000.0 Sa/s)")],
        ids=["no-section-header", "repeated-key", "repeated-section", "mc-percentile",
             "unknown-section", "zero-bins", "bad-number", "cycle-past-int64",
             "waveform-cycle-past-int64"],
    )
    def test_rejected_config_text_exits_as_config_error(self, tmp_path, capsys, text, words):
        bad = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(words)):
            load_config(bad)
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and words in err, err

    def test_non_utf8_config_exits_as_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(MINIMAL_CFG.encode() + b"# \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(bad)
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "old, new, section, key",
        [
            ("count = 20\n", "", "[source.q2]", "count"),
            ("fidelity = 0.99\n", "", "[source.q2]", "fidelity"),
            ("[analysis]", "[acquisition]\nmode = slow\n\n[analysis]", "[acquisition]", "mode"),
            ("mc_realizations = 200", "mc_realizations = 200\nbound_rule = widest", "[analysis]",
             "bound_rule"),
            ("mc_realizations = 200", "mc_realizations = 10", "[analysis]", "mc_realizations"),
            ("[analysis]", "[acquisition]\nrecord_window = 3 s\n\n[analysis]", "[acquisition]",
             "record_window"),
        ],
        ids=["no-count", "no-fidelity", "mode", "bound_rule", "mc_realizations",
             "record_window"],
    )
    def test_errors_name_their_section_once_and_their_key(self, tmp_path, old, new, section, key):
        assert old in MINIMAL_CFG
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_cfg(tmp_path, MINIMAL_CFG.replace(old, new, 1)))
        message = str(excinfo.value)
        assert message.startswith(section + " ") and message.count(section) == 1, message
        assert key in message, message


# A small run for the guard against settings that change nothing. Its drift
# makes the window's timing reach the fast-mode readings.
GUARD_SECTIONS = {
    "run": {"seed": "5"},
    "params": {"eps_gamma": "0", "vs": "-0.306 nV"},
    "acquisition": {"drift_rate": "1 nV/s"},
    "analysis": {"mc_realizations": "200"},
    "source.c1": {"fidelity": "0.5", "count": "40"},
    "source.q2": {"fidelity": "0.99", "count": "20"},
    "source.q3": {"fidelity": "0.55", "count": "20"},
}

# Every key a config file may set; the source keys as set on [source.q2]
CONFIG_KEYS = (
    [("run", key) for key in config._RUN_KEYS]
    + [("source.q2", key) for key in config._SOURCE_KEYS]
    + [(name, key) for name, (_, kinds) in config._SECTIONS.items() for key in kinds]
)

# For each config key, a value that changes an output of the guard run, and
# the mode the run takes: waveform where the key acts only there.
PERTURBED = {
    ("run", "seed"): ("6", "fast"),
    ("source.q2", "count"): ("21", "fast"),
    ("source.q2", "fidelity"): ("0.9", "fast"),
    ("params", "eps_gamma"): ("1e-9", "fast"),
    ("params", "v1"): ("2.5 V", "fast"),
    ("params", "vs"): ("0.5 nV", "fast"),
    ("acquisition", "cycle_duration"): ("3 s", "fast"),
    ("acquisition", "record_window"): ("0.5 s", "fast"),
    ("acquisition", "sample_rate"): ("500 Sa/s", "fast"),
    # at 1 ms the settling term underflows to 0 before the window starts
    ("acquisition", "filter_tau"): ("40 ms", "waveform"),
    ("acquisition", "sigma_low"): ("5 nV", "fast"),
    ("acquisition", "sigma_high"): ("0.0002 V", "fast"),
    # above the 3 V level: closed-switch cycles move to the sensitive range
    ("acquisition", "range_threshold"): ("4 V", "fast"),
    ("acquisition", "drift_rate"): ("2 nV/s", "fast"),
    ("acquisition", "mode"): ("waveform", "fast"),
    ("analysis", "threshold"): ("3 V", "fast"),
    ("analysis", "n_bins"): ("20", "fast"),
    ("analysis", "mc_realizations"): ("300", "fast"),
    ("analysis", "cl"): ("0.95", "fast"),
    ("analysis", "bound_rule"): ("folded", "fast"),
}

# the keys only the simulator reads: the blind steps must not move with any of them
NATURE_KEYS = [(section, key) for section, key in CONFIG_KEYS
               if section in ("run", "params", "acquisition")]


def _values(obj):
    """Every value an output holds, in a fixed order, as nested lists of Python scalars."""
    if dataclasses.is_dataclass(obj):
        return [_values(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        return [[key, _values(value)] for key, value in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_values(item) for item in obj]
    return np.asarray(obj).tolist()


@pytest.fixture(scope="module")
def guard_run(tmp_path_factory):
    """run(mode, section, key, value): every output of the guard run, with one key set."""
    folder = tmp_path_factory.mktemp("guard")

    @functools.cache
    def run(mode, section=None, key=None, value=None):
        sections = {name: dict(keys) for name, keys in GUARD_SECTIONS.items()}
        sections["acquisition"]["mode"] = mode
        if section is not None:
            sections[section][key] = value
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        )
        path = folder / "guard.cfg"
        path.write_text(text)
        return repr(_values(pipeline.run_pipeline(load_config(path))))

    return run


class TestConfigTable:
    @pytest.mark.parametrize("name", sorted(config._SECTIONS))
    def test_every_field_is_configurable(self, name):
        cls, kinds = config._SECTIONS[name]
        assert set(kinds) == {f.name for f in dataclasses.fields(cls)}

    def test_empty_sections_load_the_dataclass_defaults(self, tmp_path):
        text = "[run]\nseed = 1\n[params]\n[acquisition]\n[analysis]\n[source.c1]\n" \
               "fidelity = 0.5\ncount = 4\n[source.q2]\nfidelity = 0.9\ncount = 3\n"
        loaded = load_config(write_cfg(tmp_path, text))
        assert loaded.params == NonlinearParams()
        assert loaded.acquisition == AcquisitionConfig()
        assert loaded.analysis == AnalysisSettings()
        assert loaded.sources == (SourceSpec("c1", 0.5, 4), SourceSpec("q2", 0.9, 3))

    @pytest.mark.parametrize(
        "cls, name, kind, needs",
        [
            (AcquisitionConfig, "mode", AcquisitionMode, {}),
            (AnalysisSettings, "bound_rule", BoundRule, {}),
        ],
        ids=["mode", "bound_rule"],
    )
    def test_enum_fields_set_from_code_are_coerced_and_checked(self, cls, name, kind, needs):
        for member in kind:
            made = cls(**needs, **{name: member.value})
            assert getattr(made, name) is member
            assert made == cls(**needs, **{name: member})
        with pytest.raises(ValueError, match=kind.__name__):
            cls(**needs, **{name: member.value + "t"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[name for _, name in FLOAT_FIELDS])
    def test_nan_set_from_code_is_rejected(self, cls, name, value):
        with pytest.raises(ValueError):
            cls(**{name: value})

    @pytest.mark.parametrize(
        "cls, name, needs",
        [
            (SourceSpec, "count", {"id": "q", "fidelity": 0.9}),
            (AnalysisSettings, "n_bins", {}),
            (AnalysisSettings, "mc_realizations", {}),
            (RunConfig, "seed", {"sources": (SourceSpec("q", 0.9, 3), SourceSpec("c", 0.5, 4))}),
        ],
        ids=["count", "n_bins", "mc_realizations", "seed"],
    )
    def test_integer_fields_set_from_code_are_integers(self, cls, name, needs):
        made = cls(**needs, **{name: np.int64(250)})
        assert type(getattr(made, name)) is int and getattr(made, name) == 250
        for value in (250.0, 250.5):
            with pytest.raises(TypeError):
                cls(**needs, **{name: value})

    def test_duplicate_source_ids_are_refused(self):
        # configparser refuses a repeated [source.<id>] section, so only code reaches this
        with pytest.raises(ConfigError, match=re.escape("duplicate source ids: ['q', 'q']")):
            RunConfig(seed=1, sources=(SourceSpec("q", 0.9, 3), SourceSpec("q", 0.5, 4)))

    def test_bool_seed_is_recorded_as_its_int(self):
        made = RunConfig(seed=True, sources=(SourceSpec("q", 0.9, 3), SourceSpec("c", 0.5, 4)))
        assert type(made.seed) is int and made.seed == 1

    def test_seed_above_2_to_the_53_is_exact(self, tmp_path):
        text = MINIMAL_CFG.replace("seed = 99", "seed = 123456789012345678901")
        assert load_config(write_cfg(tmp_path, text)).seed == 123456789012345678901

    @pytest.mark.parametrize("section, key", CONFIG_KEYS, ids=lambda word: word)
    def test_every_key_changes_an_output(self, guard_run, section, key):
        if (section, key) not in PERTURBED:
            pytest.fail(f"[{section}] {key} has no entry in PERTURBED: give it a value that "
                        "changes an output, or delete the key")
        value, mode = PERTURBED[section, key]
        assert guard_run(mode, section, key, value) != guard_run(mode), \
            f"[{section}] {key} = {value} changes no output in {mode} mode"

    def test_perturbed_names_only_config_keys(self):
        assert set(PERTURBED) <= set(CONFIG_KEYS)



def _digests(out):
    digests = {}
    for name in os.listdir(out):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestReportIsTheThreeSteps:
    def test_report_reads_back_the_files_run_wrote(self, tmp_path, monkeypatch):
        reads = []
        for module, name in ((signal, "read_readings"), (blinding, "read_key")):
            def spy(path, read=getattr(module, name), name=name):
                reads.append((name, os.path.basename(path)))
                return read(path)

            monkeypatch.setattr(module, name, spy)
        cfg = write_cfg(tmp_path)
        assert cli.main(["report", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # blinded-summary reads the readings, then unblind-fit reads them and the key
        assert reads == [("read_readings", "readings.csv"), ("read_readings", "readings.csv"),
                         ("read_key", "key.csv")]

    def test_report_writes_what_the_steps_write(self, tmp_path):
        cfg = write_cfg(tmp_path)
        steps, report = str(tmp_path / "steps"), str(tmp_path / "report")
        for step in ("run", "blinded-summary", "unblind-fit"):
            assert cli.main([step, "--config", cfg, "--out", steps]) == 0
        assert cli.main(["report", "--config", cfg, "--out", report]) == 0
        step_files, report_files = _digests(steps), _digests(report)
        assert {"unblind_report.txt", "readings.csv.cache", "key.csv.cache"} <= set(step_files)
        assert report_files.pop("report.txt")
        assert report_files == step_files

    def test_report_text_is_the_two_step_texts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["report", "--config", cfg, "--out", out]) == 0
        blinded = _read(os.path.join(out, "blinded_summary.txt"))
        fit = _read(os.path.join(out, "unblind_report.txt"))
        assert _read(os.path.join(out, "report.txt")) == blinded + "\n" + fit

    def test_report_reads_the_bit_files_in_out(self, tmp_path):
        cfg = write_cfg(tmp_path)
        fresh, given, stepped = (str(tmp_path / n) for n in ("fresh", "given", "stepped"))
        assert cli.main(["report", "--config", cfg, "--out", fresh]) == 0
        for out in (given, stepped):
            assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
            # all-zero bits: a valid file that the seed would not generate
            spec = load_config(cfg).sources[0]
            write_bits(BitString(spec, np.zeros(spec.count, dtype=np.uint8)),
                       os.path.join(out, f"bits_{spec.id}.txt"))
        assert cli.main(["report", "--config", cfg, "--out", given]) == 0
        assert cli.main(["run", "--config", cfg, "--out", stepped]) == 0
        readings = [_read(os.path.join(out, "readings.csv")) for out in (fresh, given, stepped)]
        assert readings[1] == readings[2] != readings[0]

    @pytest.mark.parametrize(
        "text",
        [MINIMAL_CFG + "\n[acquisition]\nrange_threshold = 4 V\n",
         MINIMAL_CFG.replace("[analysis]\n", "[analysis]\nthreshold = 3 V\n")],
        ids=["range_threshold above the levels", "analysis threshold at the high level"],
    )
    def test_report_accepts_thresholds_set_apart(self, tmp_path, text):
        # [acquisition] range_threshold sets only the noise, [analysis] threshold only the split
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert cli.main(["report", "--config", cfg, "--out", out]) == 0
        assert cli.main(["blinded-summary", "--config", cfg, "--out", out]) == 0

    def test_report_refuses_partial_bit_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        os.remove(os.path.join(out, "bits_q2.txt"))
        assert cli.main(["report", "--config", cfg, "--out", out]) == cli.EXIT_CONTRACT
        assert "bits_q2.txt" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "readings.csv"))



def histogram_csv_reference(hist):
    """A histogram CSV formatted one row at a time, as the CLI wrote it before `np.savetxt`."""
    rows = zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.overlay_density)
    body = "".join(f"{lo:.15e},{hi:.15e},{c},{d:.15e}\n" for lo, hi, c, d in rows)
    return ("bin_left,bin_right,count,overlay_density\n" + body).encode()


def band_csv_reference(mc):
    """band.csv formatted one row at a time, as the CLI wrote it before `np.savetxt`."""
    rows = zip(mc.band_x, mc.band_fit, mc.band_lo, mc.band_hi)
    body = "".join(f"{x:.15e},{f:.15e},{lo:.15e},{hi:.15e}\n" for x, f, lo, hi in rows)
    return ("x,fit,lo,hi\n" + body).encode()


# sha256 of each file that `generate` and then `report` write for MINIMAL_CFG: every
# writer's bytes, the bit files, the reports, both caches and the seal included
REPORT_FILE_SHA256 = {
    "band.csv": "7b83b45123c810b1c2b4a5165d88eb4bfadc8bf28346eeafaf7cb5ece7684186",
    "bits_c1.txt": "0287f35c08f08f639e8c942bffbe56d51953a5360ddfb6ac19c5c72439cff1f6",
    "bits_q2.txt": "c0dcdcd19fdb82ec8559ecfd422bec1a133a4e9a5b48bb2791410cc64b25708b",
    "blinded_summary.txt": "5fd65ddbf6c65ec67ebc079424f740758b16b8e0203b8252d6d22575539ac551",
    "fit.csv": "05d18d6cb43ec41bc4ff4e7b8092870fb23c2f4aa165240135661e3e97bd3e7e",
    "histogram_blinded_low.csv": "31792d1a2d38ec6c0f81155de297756a166e508f1eddd61abf5c71c33ea3aa95",
    "histogram_c1_low.csv": "7890ff21ecc6c70219e9d252063748d585699dc54ab82b379ed2eccabd64fc5c",
    "histogram_q2_low.csv": "622dd7991612232796d965d149155f238c7379243027617e0260ba7e8dbc01af",
    "key.csv": "87d44b7698e3908079ba887c4721d45598592bb772ed99c4099173d40c1091d4",
    "key.csv.cache": "2de5b9117eb90299594e76947eb873455dd55b1339e520081c1e5996cebc0e04",
    "readings.csv": "3df994f250b3542ccacad6a34d0814af4585f736926e7dc754e9e7d82cdcdf0f",
    "readings.csv.cache": "f7d03c9b4a00afd18731e3f9c6a4408ea71c3bc0b30228f08617c80049557b7b",
    "report.txt": "004dadb89e763915bc14b293ba2f639b32c47d04ed5ed615b785b714f8a5f89a",
    "seal.json": "a3caea51dba79fae862c58b595535496d153fb13fe8a680d17f70f9296432b81",
    "unblind_report.txt": "cce3e86ab56892437d7d893b057e1abf0835ceb8970961b7fbccaad78e946685",
}


# sha256 of the fit's outputs that `generate` and then `report` write for each shipped
# config: the paper's scale, 100,717 cycles and 10,000 Monte Carlo draws
PAPER_FIT_SHA256 = {
    "injected.cfg": {
        "band.csv": "f5e1ead18a711728f445e1f929f2a5dbb83c5c5d3df234d892ca8976f6494def",
        "fit.csv": "b28952f173a77f62fd3ba83c3719c13040d984ca6c55b43cd6777a334427858d",
        "unblind_report.txt": "293a7ec723b51a8e81479ee3c9ae00f390fee500f15ba2fe6d415e7d08f58a5b",
    },
    "null.cfg": {
        "band.csv": "57d47d6142d2d95750caf125531e69b8a0aa41278e2b0fd8f48173d402c0e14c",
        "fit.csv": "363cdce12b3ef93b62fab87dc775250835b267cda01624a761a8f962c8426221",
        "unblind_report.txt": "94baac612ff46f1c9215ddbcdd7df9015cc1f90b7b762c7c6ab75ff4f86de116",
    },
}


# Each step's traced peak in MiB at paper scale, run through `cli.main`. With full-length
# temporaries `run` peaked at 4.95 (the acquisition's arrays) and `unblind-fit` at 3.89
# (the unblinded readings alive through the histograms); with the fidelities, the bit
# strings and the readings kept after their last use, and one np.histogram call over all
# the low readings, `run` peaked at 3.60 and `blinded-summary` at 3.22. With an int64
# key, per-position fidelities and readings.csv written before key.csv, `run` peaked at
# 2.65 and `unblind-fit` at 2.87 (the readings and the key alive through the fit). Now
# `run` peaks at 1.69 (readings.csv's write, after the key's), `unblind-fit` at 2.10 (the
# key's read beside the readings), `blinded-summary` at 1.97 and `generate` at 0.49.
STEP_PEAK_MIB = {"generate": 0.6, "run": 1.9, "blinded-summary": 2.2, "unblind-fit": 2.3}


def test_paper_scale_steps_stay_under_their_peak_memory(tmp_path):
    cfg = os.path.join(CONFIGS, "null.cfg")
    steps = ("generate", "run", "blinded-summary", "unblind-fit")
    for step in steps:  # imports, caches
        assert cli.main([step, "--config", cfg, "--out", str(tmp_path / "warm")]) == 0
    peaks = {}
    for step in steps:
        tracemalloc.start()
        try:
            assert cli.main([step, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            peaks[step] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert all(peaks[step] < STEP_PEAK_MIB[step] for step in steps), peaks


class TestTableWriters:
    def test_every_file_keeps_its_recorded_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        assert cli.main(["report", "--config", cfg, "--out", out]) == 0
        assert _digests(out) == REPORT_FILE_SHA256

    @pytest.mark.parametrize("name", sorted(PAPER_FIT_SHA256))
    def test_paper_scale_fit_keeps_its_recorded_bytes(self, tmp_path, name):
        cfg = os.path.join(CONFIGS, name)
        out = str(tmp_path / "out")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        assert cli.main(["report", "--config", cfg, "--out", out]) == 0
        digests = _digests(out)
        assert {f: digests[f] for f in PAPER_FIT_SHA256[name]} == PAPER_FIT_SHA256[name]

    def test_histogram_matches_the_row_reference(self, tmp_path, rng):
        edges = rng.normal(size=51) * 10.0 ** rng.integers(-300, 300, 51)
        edges[[0, 7]] = -0.0, 0.0
        density = rng.random(50) * 10.0 ** rng.integers(-12, 12, 50)
        density[[3, 4]] = 0.0, -0.0
        hist = HistogramResult(edges, rng.integers(0, 100_718, 50), density)
        path = tmp_path / "histogram.csv"
        files.write_histogram(str(path), hist)
        assert path.read_bytes() == histogram_csv_reference(hist)

    def test_fit_step_tables_match_the_row_reference(self, tmp_path):
        config = load_config(write_cfg(tmp_path))
        _, _, _, result = pipeline.run_pipeline(config)
        cli.cmd_run(config, str(tmp_path))
        cli.cmd_unblind_fit(config, str(tmp_path))
        assert (tmp_path / "band.csv").read_bytes() == band_csv_reference(result.mc)
        for sid, hist in result.per_source_hist.items():
            written = (tmp_path / f"histogram_{sid}_low.csv").read_bytes()
            assert written == histogram_csv_reference(hist)


def _plus_one_nanovolt(words, tail):
    """The cached readings column, 8 bytes a row, with 1 nV added to every value."""
    n = len(tail) // 8
    values = np.frombuffer(tail[:8 * n], "<f8") + 1e-9
    return words, values.astype("<f8").tobytes()


def _first_two_rows_swapped(words, tail):
    """Cached key columns (source codes, source indexes) with rows 0 and 1 swapped."""
    n = len(tail) // 12
    codes, index = np.frombuffer(tail[:4 * n], "<u4"), np.frombuffer(tail[4 * n:], "<i8")
    order = [1, 0, *range(2, n)]
    return words, codes[order].tobytes() + index[order].tobytes()


class TestSeal:
    """`run` seals readings.csv and key.csv; the later steps refuse a table it did not seal."""

    @staticmethod
    def ran(tmp_path, text=MINIMAL_CFG, name="out"):
        cfg, out = write_cfg(tmp_path, text, f"{name}.cfg"), tmp_path / name
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        return cfg, out

    def test_run_seals_the_tables_it_wrote(self, tmp_path):
        _, out = self.ran(tmp_path)
        tables = ("readings.csv", "key.csv")
        # a cache is sealed by the sha256 of its payload, after its tag and two digests
        head = len(files.CACHE_TAG) + 64
        payloads = {f"{name}.cache": (out / f"{name}.cache").read_bytes()[head:] for name in tables}
        assert json.loads((out / "seal.json").read_text()) == {
            **{name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in tables},
            **{name: hashlib.sha256(payload).hexdigest() for name, payload in payloads.items()},
        }

    @pytest.mark.parametrize("step, names", [("run", []),
                                             ("blinded-summary", ["readings.csv"]),
                                             ("unblind-fit", ["readings.csv", "key.csv"])])
    def test_each_step_hashes_each_table_once(self, tmp_path, hashed, step, names):
        # `run` keeps the digests it wrote, and a reader checks its seal with the digest it read
        cfg, out = self.ran(tmp_path)
        hashed.clear()
        assert cli.main([step, "--config", cfg, "--out", str(out)]) == 0
        assert [os.path.basename(path) for path in hashed] == names

    @pytest.mark.parametrize("step", ["blinded-summary", "unblind-fit"])
    def test_swapped_readings_contract_exit_code(self, tmp_path, capsys, step):
        # rows 1 and 2 trade places: every row parses
        cfg, out = self.ran(tmp_path)
        path = out / "readings.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[2] != lines[3]
        lines[2:4] = lines[3], lines[2]
        path.write_text("".join(lines))
        capsys.readouterr()
        assert cli.main([step, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: {path}: not the file that {out / 'seal.json'} records from `run`\n")
        assert not (out / "fit.csv").exists()

    @pytest.mark.parametrize("step, table, edit", [
        ("blinded-summary", "readings.csv", _plus_one_nanovolt),
        ("unblind-fit", "readings.csv", _plus_one_nanovolt),
        ("unblind-fit", "key.csv", _first_two_rows_swapped),
    ], ids=["blinded-summary readings", "unblind-fit readings", "unblind-fit key"])
    def test_edited_cache_contract_exit_code(self, tmp_path, capsys, step, table, edit):
        # the payload's digest is recomputed, so the cache is valid for its CSV and is read
        cfg, out = self.ran(tmp_path)
        cached = pathlib.Path(files.cache_path(out / table))
        cached.write_bytes(relaid(edit)(cached.read_bytes()))
        capsys.readouterr()
        assert cli.main([step, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: {cached}: not the file that {out / 'seal.json'} records from `run`\n")
        assert not (out / "blinded_summary.txt").exists() and not (out / "fit.csv").exists()

    def test_key_of_another_seed_contract_exit_code(self, tmp_path, capsys):
        # the same sources and counts, so only the seal tells the two keys apart
        cfg, out = self.ran(tmp_path)
        _, other = self.ran(tmp_path, MINIMAL_CFG.replace("seed = 99", "seed = 7"), "other")
        key = out / "key.csv"
        assert (other / "key.csv").read_bytes() != key.read_bytes()
        key.write_bytes((other / "key.csv").read_bytes())
        assert cli.main(["blinded-summary", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["unblind-fit", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: {key}: not the file that {out / 'seal.json'} records from `run`\n")
        assert not (out / "fit.csv").exists()

    @pytest.mark.parametrize("step", ["blinded-summary", "unblind-fit"])
    def test_failed_run_leaves_no_seal_to_blame(self, tmp_path, capsys, monkeypatch, step):
        # a second `run`, of another seed, whose readings.csv finds the disk full: its key
        # sits beside the first run's readings, which the first run's seal would call an edit
        cfg, out = self.ran(tmp_path)
        other = write_cfg(tmp_path, MINIMAL_CFG.replace("seed = 99", "seed = 7"), "other.cfg")
        key = (out / "key.csv").read_bytes()

        def disk_full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as patch:
            patch.setattr(signal, "write_readings", disk_full)
            assert cli.main(["run", "--config", other, "--out", str(out)]) == cli.EXIT_IO
        assert (out / "key.csv").read_bytes() != key
        capsys.readouterr()
        assert cli.main([step, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: {out / 'readings.csv'}: its seal {out / 'seal.json'} cannot be read "
            "(No such file or directory)\n")
        assert not (out / "fit.csv").exists()

    @pytest.mark.parametrize("step", ["blinded-summary", "unblind-fit"])
    @pytest.mark.parametrize("text, reason", [(None, "No such file or directory"),
                                              ("sealed\n", "Expecting value: line 1 column 1"),
                                              ("[" * 100_000, "maximum recursion depth exceeded")],
                             ids=["deleted", "not JSON", "nested"])
    def test_unreadable_seal_contract_exit_code(self, tmp_path, capsys, step, text, reason):
        cfg, out = self.ran(tmp_path)
        seal = out / "seal.json"
        if text is None:
            seal.unlink()
        else:
            seal.write_text(text)
        capsys.readouterr()
        assert cli.main([step, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONTRACT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'readings.csv'}: its seal {seal} cannot be read "
                              f"({reason}"), err
        assert not (out / "fit.csv").exists()


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

    def test_no_output_names_the_seed(self, tmp_path):
        # the seed rebuilds the blinding key, so no file a step writes may hold it
        seed = "271828182845"
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("seed = 99", f"seed = {seed}"))
        out = tmp_path / "out"
        for step in ("generate", "run", "blinded-summary", "unblind-fit"):
            assert cli.main([step, "--config", cfg, "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 14
        assert [f.name for f in out.iterdir() if seed.encode() in f.read_bytes()] == []

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
        with open(os.path.join(out, "report.txt")) as fh:
            text = fh.read()
        assert "bound" in text

    @pytest.mark.parametrize("cl, percent", [("0.999", "99.9"), ("0.95", "95"),
                                             ("0.9999999", "99.99999")])
    def test_cl_label_keeps_the_digits_of_cl(self, tmp_path, cl, percent):
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("[analysis]\n", f"[analysis]\ncl = {cl}\n"))
        out = tmp_path / "out"
        assert cli.main(["report", "--config", cfg, "--out", str(out)]) == 0
        for report in ("unblind_report.txt", "report.txt"):
            assert f"\n  {percent}% CL bound (central): |eps| < " in (out / report).read_text()
        rows = [line.split(",")[0] for line in (out / "fit.csv").read_text().splitlines()]
        assert rows[4] == f"bound_{percent}"

    def test_config_error_exit_code(self, tmp_path):
        bad = write_cfg(tmp_path, MINIMAL_CFG.replace("vs = -0.306 nV", "vs = oops"))
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        code = cli.main(
            ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("step", ["blinded-summary", "unblind-fit"])
    def test_missing_readings_io_exit_code(self, tmp_path, step):
        # a step that only reads leaves no --out directory behind
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "empty")
        code = cli.main([step, "--config", cfg, "--out", out])
        assert code == cli.EXIT_IO
        assert not os.path.exists(out)

    def test_mismatched_key_contract_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        cli.main(["run", "--config", cfg, "--out", out])
        # truncate the key: unblinding must refuse, whatever its cache holds
        key_path = os.path.join(out, "key.csv")
        assert os.path.exists(key_path + ".cache")
        with open(key_path) as fh:
            lines = fh.readlines()
        with open(key_path, "w") as fh:
            fh.writelines(lines[:-5])
        capsys.readouterr()
        code = cli.main(["unblind-fit", "--config", cfg, "--out", out])
        assert code == cli.EXIT_CONTRACT
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: {re.escape(key_path)}: blinded position \d+: bit \d+ outside 0\.\.\d+\n", err
        ), err

    @pytest.mark.parametrize(
        "run_text, fit_text",
        [(MINIMAL_CFG + "\n[source.q3]\nfidelity = 0.55\ncount = 30\n",
          MINIMAL_CFG),
         (MINIMAL_CFG, MINIMAL_CFG.replace("count = 20", "count = 21"))],
        ids=["dropped-source", "changed-count"],
    )
    def test_key_that_disagrees_with_the_config_exit_code(
        self, tmp_path, capsys, run_text, fit_text
    ):
        out = str(tmp_path / "out")
        run_cfg = write_cfg(tmp_path, run_text, "run.cfg")
        assert cli.main(["run", "--config", run_cfg, "--out", out]) == 0
        fit_cfg = write_cfg(tmp_path, fit_text, "fit.cfg")
        assert cli.main(["unblind-fit", "--config", fit_cfg, "--out", out]) == cli.EXIT_CONTRACT
        assert "do not match the configured" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "fit.csv"))

    @pytest.mark.parametrize("only", [None, *NATURE_KEYS],
                             ids=["every key", *(key for _, key in NATURE_KEYS)])
    def test_blind_steps_read_no_run_params_or_acquisition_key(self, tmp_path, capsys, only):
        # every [run], [params] and [acquisition] key, or the one named, at the value that
        # moves the guard run's outputs
        keys = {k: PERTURBED[k][0] for k in NATURE_KEYS if only in (None, k)}
        cfg = write_cfg(tmp_path)
        text = MINIMAL_CFG + "\n[acquisition]\n"
        for (section, key), value in keys.items():
            text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
            if not n:
                text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)
        moved = write_cfg(tmp_path, text, "moved.cfg")
        base, loaded = load_config(cfg), load_config(moved)
        for section, key in keys:  # the edit took: the key differs from the run's config
            old, new = (c if section == "run" else getattr(c, section) for c in (base, loaded))
            assert getattr(old, key) != getattr(new, key), (section, key)
        outputs = []
        for name, step_cfg in (("same", cfg), ("moved", moved)):
            out = str(tmp_path / name)
            assert cli.main(["run", "--config", cfg, "--out", out]) == 0
            capsys.readouterr()
            for step in ("blinded-summary", "unblind-fit"):
                assert cli.main([step, "--config", step_cfg, "--out", out]) == 0
            outputs.append((capsys.readouterr().out, _digests(out)))
        assert outputs[0] == outputs[1]

    def test_readings_and_key_of_different_lengths_name_both_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["report", "--config", cfg, "--out", str(out)]) == 0
        readings, key = out / "readings.csv", out / "key.csv"
        readings.write_text("".join(readings.read_text().splitlines(keepends=True)[:-1]))
        capsys.readouterr()
        assert cli.main(["unblind-fit", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONTRACT
        err = capsys.readouterr().err
        assert err == f"error: {readings}: 59 readings but {key} has 60 entries\n"

    def test_key_counts_that_disagree_with_the_config_name_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
        fit_cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("count = 20", "count = 21"), "fit.cfg")
        capsys.readouterr()
        code = cli.main(["unblind-fit", "--config", fit_cfg, "--out", str(out)])
        assert code == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: {out / 'key.csv'}: key source counts {{'c1': 40, 'q2': 20}} "
            "do not match the configured {'c1': 40, 'q2': 21}\n"
        )

    def test_run_without_bit_files_writes_what_generate_then_run_writes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        fresh, ingested = tmp_path / "fresh", tmp_path / "ingested"
        assert cli.main(["run", "--config", cfg, "--out", str(fresh)]) == 0
        assert not list(fresh.glob("bits_*"))
        for step in ("generate", "run"):
            assert cli.main([step, "--config", cfg, "--out", str(ingested)]) == 0
        for name in ("readings.csv", "key.csv", "readings.csv.cache", "key.csv.cache"):
            assert (fresh / name).read_bytes() == (ingested / name).read_bytes(), name

    @pytest.mark.parametrize("bit, n_low, sem", [(0, 1, "0.0 V"), (1, 0, "undefined")],
                             ids=["one-low-reading", "no-low-reading"])
    def test_source_the_fit_cannot_weight_exit_code(self, tmp_path, capsys, bit, n_low, sem):
        text = MINIMAL_CFG.replace("count = 20", "count = 1") \
            + "\n[source.q3]\nfidelity = 0.55\ncount = 30\n"
        cfg = write_cfg(tmp_path, text)
        spec = load_config(cfg).sources[1]
        for step in ("unblind-fit", "report"):
            out = str(tmp_path / step)
            assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
            write_bits(BitString(spec, np.array([bit], dtype=np.uint8)),
                       os.path.join(out, "bits_q2.txt"))
            if step == "unblind-fit":
                assert cli.main(["run", "--config", cfg, "--out", out]) == 0
                assert cli.main(["blinded-summary", "--config", cfg, "--out", out]) == 0
            capsys.readouterr()
            assert cli.main([step, "--config", cfg, "--out", out]) == cli.EXIT_CONTRACT
            err = capsys.readouterr().err
            assert f"source 'q2' has {n_low} low readings with SEM {sem}" in err, err
            assert not os.path.exists(os.path.join(out, "fit.csv"))

    def test_empty_blinded_population_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        for spec in load_config(cfg).sources:
            write_bits(BitString(spec, np.zeros(spec.count, dtype=np.uint8)),
                       os.path.join(out, f"bits_{spec.id}.txt"))
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["blinded-summary", "--config", cfg, "--out", out]) == cli.EXIT_CONTRACT
        err = capsys.readouterr().err
        assert err == "error: no high readings to summarize (threshold 1.0 V)\n", err

    def test_no_high_readings_to_measure_v1_exit_code(self, tmp_path, capsys):
        # a threshold above the closed-switch level leaves no reading to measure v1 from
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", write_cfg(tmp_path), "--out", out]) == 0
        above = write_cfg(tmp_path, MINIMAL_CFG + "threshold = 4 V\n", "above.cfg")
        capsys.readouterr()
        assert cli.main(["unblind-fit", "--config", above, "--out", out]) == cli.EXIT_CONTRACT
        message = "no high readings to measure v1 (threshold 4.0 V)"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(os.path.join(out, "fit.csv"))
        readings, _ = signal.read_readings(os.path.join(out, "readings.csv"))
        key, _ = blinding.read_key(os.path.join(out, "key.csv"))
        with pytest.raises(ValueError, match=re.escape(message)):
            pipeline.unblind_fit(blinding.unblind(readings, key), load_config(above))

    def test_source_named_blinded_exit_code(self, tmp_path, capsys):
        # its per-source histogram would overwrite the pooled histogram_blinded_low.csv
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("[source.q2]", "[source.blinded]"))
        out = str(tmp_path / "out")
        assert cli.main(["report", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: [source.blinded] source id 'blinded'"), err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "old, new, named",
        [("[source.q2]\nfidelity = 0.99\ncount = 20\n", "", "{'c1': 0.5}"),
         ("fidelity = 0.99", "fidelity = 0.5", "{'c1': 0.5, 'q2': 0.5}")],
        ids=["one source", "one fidelity"],
    )
    def test_design_the_fit_cannot_use_exit_code(self, tmp_path, capsys, old, new, named):
        # the fit of the low means against fidelity needs two x values: refused at load
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace(old, new))
        out = str(tmp_path / "out")
        for step in cli.COMMANDS:
            assert cli.main([step, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err == f"config error: source fidelities {named}: the fit needs at least " \
                          "two distinct fidelities\n", err
        assert not os.path.exists(out)

    # Each size gives an array of over 2**56 bytes, more than any 64-bit address space maps,
    # so its allocation fails at once whatever the machine's memory or overcommit setting.
    @pytest.mark.parametrize(
        "step, old, new",
        [("blinded-summary", "[analysis]\n", "[analysis]\nn_bins = 1e16\n"),
         ("unblind-fit", "mc_realizations = 200", "mc_realizations = 1e16")],
        ids=["n_bins", "mc_realizations"],
    )
    def test_allocation_that_cannot_succeed_exit_code(self, tmp_path, capsys, step, old, new):
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace(old, new))
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert cli.main([step, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1, err

    def test_swapped_readings_rows_contract_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        path = os.path.join(out, "readings.csv")
        assert os.path.exists(path + ".cache")  # of the readings before the swap
        with open(path) as fh:
            lines = fh.readlines()
        values = [float(line) for line in lines[1:]]
        low = next(i for i, v in enumerate(values, 1) if v < 1.0)
        high = next(i for i, v in enumerate(values, 1) if v > 1.0)
        lines[low], lines[high] = lines[high], lines[low]
        with open(path, "w") as fh:
            fh.writelines(lines)
        code = cli.main(["unblind-fit", "--config", cfg, "--out", out])
        assert code == cli.EXIT_CONTRACT
        sealed = os.path.join(out, "seal.json")
        assert capsys.readouterr().err == (
            f"error: {path}: not the file that {sealed} records from `run`\n")
        assert not os.path.exists(os.path.join(out, "fit.csv"))

    @pytest.mark.parametrize(
        "step, name, line, field, text, message",
        [
            ("run", "bits_c1.txt", 5, 0, b"2", "line 5: expected '0' or '1', got '2'"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.5 n=abc",
             "invalid header fields: invalid literal for int() with base 10: 'abc'"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.5", "header has no 'n=' field"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.5 n=3 n=1",
             "header token 'n=1' repeats the 'n=' field"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.5 n", "bad header token 'n'"),
            ("run", "bits_c1.txt", 1, 0, b"# id=" + b"c" * 238 + b" fidelity=0.5 n=40",
             "invalid header fields: source id of 238 characters is over 237: "
             "histogram_<id>_low.csv must fit a 255-byte file name"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.6 n=40",
             "header SourceSpec(id='c1', fidelity=0.6, count=40) does not match configured "
             "SourceSpec(id='c1', fidelity=0.5, count=40)"),
            ("blinded-summary", "readings.csv", 1, 0, b"blinded_index,reading_volts",
             "unexpected header 'blinded_index,reading_volts'"),
            ("blinded-summary", "readings.csv", 1, 0, b"blinded_index,reading_volts,range",
             "unexpected header 'blinded_index,reading_volts,range'"),
            ("unblind-fit", "readings.csv", 1, 0, b"blinded_index,reading_volts,range",
             "unexpected header 'blinded_index,reading_volts,range'"),
            ("unblind-fit", "key.csv", 4, 1, b"-1", "blinded position 2: source_index < 0"),
            ("unblind-fit", "key.csv", 1, 0, b"blinded_index,source_id",
             "unexpected header 'blinded_index,source_id,source_index'"),
            ("unblind-fit", "key.csv", 1, 0, b"source",
             "unexpected header 'source,source_index'"),
            ("run", "bits_c1.txt", 5, 0, b"\xff", "line 5: not UTF-8 text (invalid start byte)"),
            ("blinded-summary", "readings.csv", 5, 0, b"\xff",
             "line 5: not UTF-8 text (invalid start byte)"),
            ("unblind-fit", "key.csv", 5, 0, b"\xff",
             "line 5: not UTF-8 text (invalid start byte)"),
        ],
        ids=["bit 2", "header n=abc", "header without n", "header n twice", "header token n",
             "header id of 238 characters", "header fidelity unlike config",
             "readings header of the previous format", "readings header of the range format",
             "readings header of the range format to unblind-fit", "negative source_index",
             "key header of the previous format", "key header renamed",
             "bit file byte ff", "readings byte ff", "key byte ff"],
    )
    def test_bad_input_file_contract_exit_code(
        self, tmp_path, capsys, step, name, line, field, text, message
    ):
        # the field-th comma-separated field of the line-th line is replaced by text;
        # the step then writes no file
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        first = "generate" if step == "run" else "run"
        assert cli.main([first, "--config", cfg, "--out", out]) == 0
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            lines = fh.readlines()
        fields = lines[line - 1].rstrip(b"\n").split(b",")
        fields[field] = text
        lines[line - 1] = b",".join(fields) + b"\n"
        with open(path, "wb") as fh:
            fh.writelines(lines)
        before = _digests(out)
        capsys.readouterr()
        assert cli.main([step, "--config", cfg, "--out", out]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert _digests(out) == before

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

    def test_cli_import_leaves_out_scipy_stats_and_optimize(self):
        # a fresh interpreter, so no module the test suite loaded counts
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        paths = (src, os.environ.get("PYTHONPATH"))
        probe = (
            "import sys, qvolt.cli; "
            "print(*sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    @pytest.mark.parametrize("step", [None, "generate", "blinded-summary", "unblind-fit"],
                             ids=["import", "generate", "blinded-summary", "unblind-fit"])
    def test_steps_that_draw_no_noise_leave_out_scipy(self, tmp_path, step):
        # a fresh interpreter, so no module the test suite loaded counts
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        assert {"readings.csv.cache", "key.csv.cache"} <= set(os.listdir(out))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        paths = (src, os.environ.get("PYTHONPATH"))
        call = f"cli.main({[step, '--config', cfg, '--out', out]!r})" if step else "0"
        probe = (
            "import contextlib, io, sys; from qvolt import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = {call}\n"
            "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]
