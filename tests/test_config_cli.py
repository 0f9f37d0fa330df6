import dataclasses
import functools
import glob
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

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

    @pytest.mark.parametrize("sid", ["q 2", "q,2"], ids=["space", "comma"])
    def test_source_ids_outside_the_id_alphabet_exit_as_config_errors(self, tmp_path, sid):
        bad = write_cfg(tmp_path, MINIMAL_CFG.replace("[source.q2]", f"[source.{sid}]"))
        with pytest.raises(ConfigError, match="source id"):
            load_config(bad)
        out = str(tmp_path / "out")
        for step in ("generate", "run"):
            assert cli.main([step, "--config", bad, "--out", out]) == cli.EXIT_CONFIG
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "text, words",
        [("seed = 1\n" + MINIMAL_CFG, "no section headers"),
         (MINIMAL_CFG.replace("count = 40", "count = 40\ncount = 41"), "option 'count'"),
         (MINIMAL_CFG + "\n[run]\nseed = 1\n", "section 'run' already exists"),
         (MINIMAL_CFG + "bound_rule = mc-percentile\n", "[analysis] bound_rule")],
        ids=["no-section-header", "repeated-key", "repeated-section", "mc-percentile"],
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
               "fidelity = 0.5\ncount = 4\n"
        loaded = load_config(write_cfg(tmp_path, text))
        assert loaded.params == NonlinearParams()
        assert loaded.acquisition == AcquisitionConfig()
        assert loaded.analysis == AnalysisSettings()
        assert loaded.sources == (SourceSpec("c1", 0.5, 4),)

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
            (RunConfig, "seed", {"sources": (SourceSpec("q", 0.9, 3),)}),
        ],
        ids=["count", "n_bins", "mc_realizations", "seed"],
    )
    def test_integer_fields_set_from_code_are_integers(self, cls, name, needs):
        made = cls(**needs, **{name: np.int64(250)})
        assert type(getattr(made, name)) is int and getattr(made, name) == 250
        for value in (250.0, 250.5):
            with pytest.raises(TypeError):
                cls(**needs, **{name: value})

    def test_bool_seed_is_recorded_as_its_int(self):
        made = RunConfig(seed=True, sources=(SourceSpec("q", 0.9, 3),))
        assert type(made.seed) is int and made.seed == 1
        _, key = pipeline.blind(made, pipeline.generate_bits(made))
        assert key.seed_descriptor == "1/blinding"

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
        # the range flag follows [acquisition] range_threshold, not [analysis] threshold
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
# writer's bytes, the bit files, the reports and both caches included
REPORT_FILE_SHA256 = {
    "band.csv": "cdac91647635f8dfccb0a2856b20624061102d59650c3400c486fd12ea6c8e79",
    "bits_c1.txt": "0287f35c08f08f639e8c942bffbe56d51953a5360ddfb6ac19c5c72439cff1f6",
    "bits_q2.txt": "c0dcdcd19fdb82ec8559ecfd422bec1a133a4e9a5b48bb2791410cc64b25708b",
    "blinded_summary.txt": "5fd65ddbf6c65ec67ebc079424f740758b16b8e0203b8252d6d22575539ac551",
    "fit.csv": "37551aff774ff9f9298a673996914a5b46fed364b1b790c10cf1761cab5480ae",
    "histogram_blinded_low.csv": "31792d1a2d38ec6c0f81155de297756a166e508f1eddd61abf5c71c33ea3aa95",
    "histogram_c1_low.csv": "7890ff21ecc6c70219e9d252063748d585699dc54ab82b379ed2eccabd64fc5c",
    "histogram_q2_low.csv": "622dd7991612232796d965d149155f238c7379243027617e0260ba7e8dbc01af",
    "key.csv": "ff1f1104b7a4f15e8604427c6823acedcc94fe2697d4ed9848c4c0a19575a366",
    "key.csv.cache": "17e032ffc39f28ff4a45f3000d0efa2bbc9f1efe925a9861100d638168840a1d",
    "readings.csv": "d1848ea2f9559aae0cf1a5714e27b70b503793124a8babf9a2ef926ea7800c86",
    "readings.csv.cache": "244dc0d47df05775aa27458fbcaa3a8afb03406055fd7b313636c1fd62fb71e0",
    "report.txt": "9561cc651d68e4c980885ede443dad6c64e4afca7fc66888c39a13d0ed3d500a",
    "unblind_report.txt": "c44144478977bb4c06095b5fdb5ff4e629fa8e1bdfb80a397353d1099d061c24",
}


# sha256 of the fit's outputs that `generate` and then `report` write for each shipped
# config: the paper's scale, 100,717 cycles and 10,000 Monte Carlo draws
PAPER_FIT_SHA256 = {
    "injected.cfg": {
        "band.csv": "6a884102bf1e064f62964e6935b751b037429a69fefb8cc9ea492bf1b81a9e56",
        "fit.csv": "0a0289e5a9f6f03323a26cc2fbe052e08df36049c28c4806165f2d921631c953",
        "unblind_report.txt": "62c347cd142662272f39e9e4bd6d2109db09bab07bf16290ffb3497e0428bcb8",
    },
    "null.cfg": {
        "band.csv": "8c7a8f4eb9e12c23eb18d05c462d90cf1d7166e17e2a595ed11c713e39dff5d5",
        "fit.csv": "268c965cf6426c22d62cfd6c98beadce5d398d7a4aaa1e8cea4f829b4adf9cd8",
        "unblind_report.txt": "0e70f2ad8377aac822bfd84043640a084bc34cc7d663a7ee38951f0fb58952d2",
    },
}


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

    def test_source_named_blinded_exit_code(self, tmp_path, capsys):
        # its per-source histogram would overwrite the pooled histogram_blinded_low.csv
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("[source.q2]", "[source.blinded]"))
        out = str(tmp_path / "out")
        assert cli.main(["report", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: [source.blinded] source id 'blinded'"), err
        assert not os.path.exists(out)

    def test_swapped_readings_rows_contract_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        path = os.path.join(out, "readings.csv")
        assert os.path.exists(path + ".cache")  # of the readings before the swap
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

    @pytest.mark.parametrize(
        "step, name, line, field, text, message",
        [
            ("run", "bits_c1.txt", 5, 0, b"2", "line 5: expected '0' or '1', got '2'"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.5 n=abc",
             "invalid header fields: invalid literal for int() with base 10: 'abc'"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.5", "header has no 'n=' field"),
            ("run", "bits_c1.txt", 1, 0, b"# id=c1 fidelity=0.5 n=3 n=1",
             "header token 'n=1' repeats the 'n=' field"),
            ("blinded-summary", "readings.csv", 5, 2, b"sensitiv",
             "row 3: unknown range 'sensitiv'"),
            ("blinded-summary", "readings.csv", 5, 2, b"sensitive\0",
             "row 3: unknown range 'sensitive\\x00'"),
            ("blinded-summary", "readings.csv", 5, 2, b"insensitive\0",
             "row 3: unknown range 'insensitive\\x00'"),
            ("blinded-summary", "readings.csv", 5, 2, b"insensitive_range",
             "row 3: unknown range 'insensitive_range'"),
            ("blinded-summary", "readings.csv", 5, 2, "ранг".encode(),
             "row 3: unknown range 'ранг'"),
            ("blinded-summary", "readings.csv", 5, 2, b"sensitive",
             "row 3: reading 2.9998853642131187 V is above the range threshold 1.0 V "
             "but was recorded on the sensitive range"),
            ("unblind-fit", "key.csv", 5, 2, b"-1", "blinded position 2: source_index < 0"),
            ("run", "bits_c1.txt", 5, 0, b"\xff", "line 5: not UTF-8 text (invalid start byte)"),
            ("blinded-summary", "readings.csv", 5, 2, b"\xff",
             "line 5: not UTF-8 text (invalid start byte)"),
            ("unblind-fit", "key.csv", 5, 1, b"\xff",
             "line 5: not UTF-8 text (invalid start byte)"),
        ],
        ids=["bit 2", "header n=abc", "header without n", "header n twice", "range sensitiv",
             "range sensitive NUL", "range insensitive NUL", "range over 12 bytes",
             "range outside latin-1", "range flipped", "negative source_index",
             "bit file byte ff", "readings byte ff", "key byte ff"],
    )
    def test_bad_input_file_contract_exit_code(
        self, tmp_path, capsys, step, name, line, field, text, message
    ):
        # the field-th comma-separated field of the line-th line is replaced by text
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
        capsys.readouterr()
        assert cli.main([step, "--config", cfg, "--out", out]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

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
