"""Command-line front end.

Subcommands: generate, run, blinded-summary, unblind-fit, report, one entry
each in COMMANDS. Each takes --config <path> and --out <dir>. A subcommand
writes its files and returns the text it prints; `main` prints that text and
maps errors to exit codes: 0 success, 2 config error, 3 I/O error,
4 contract violation (bad data, blinding discipline, mismatched key, ...).
`run` seals its readings and key and their caches (`files.seal`), and writing a
table drops any older seal; the later steps refuse tables it did not seal.

`report` is `run`, then `blinded-summary`, then `unblind-fit`, each reading
the files the step before it wrote, so it goes through the same readers and
checks as the separate steps; it adds report.txt.
"""

import argparse
import functools
import os
import sys

from . import analysis, blinding, files, pipeline, signal, sources
from .config import ConfigError, RunConfig, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CONTRACT = 4


def _bits_path(out: str, sid: str) -> str:
    return os.path.join(out, f"bits_{sid}.txt")


def _format_summary(tag: str, s: analysis.GaussianSummary) -> str:
    return f"{tag}: n={s.n}  mean={s.mean:.6e} V  sd={s.sd:.6e} V  sem={s.sem:.6e} V"


def cmd_generate(config: RunConfig, out: str) -> str:
    os.makedirs(out, exist_ok=True)
    strings = pipeline.generate_bits(config)
    for bs in strings:
        sources.write_bits(bs, _bits_path(out, bs.source.id))
    return "".join(f"wrote {_bits_path(out, bs.source.id)} ({bs.source.count} bits)\n"
                   for bs in strings)


def cmd_run(config: RunConfig, out: str) -> str:
    """Blind and acquire the bit files in `out` (fresh bits if none); write and seal the tables.

    key.csv is written first, from the key alone; the key and the blinded bits are dropped
    once the readings are acquired, so readings.csv is written beside none of them. The
    seal is the last write.
    """
    os.makedirs(out, exist_ok=True)
    paths = [_bits_path(out, spec.id) for spec in config.sources]
    missing = [p for p in paths if not os.path.exists(p)]
    if 0 < len(missing) < len(paths):
        raise ValueError(f"bit files missing for some configured sources: {', '.join(missing)}")
    if missing:
        strings = pipeline.generate_bits(config)
    else:
        strings = [sources.ingest_bits(p) for p in paths]
        for bs, spec, path in zip(strings, config.sources, paths):
            if bs.source != spec:
                raise ValueError(f"{path}: header {bs.source} does not match configured {spec}")

    blinded_bits, key = pipeline.blind(config, strings)
    del strings
    readings_path, key_path = os.path.join(out, "readings.csv"), os.path.join(out, "key.csv")
    digests = blinding.write_key(key, key_path)
    readings = pipeline.acquire(config, blinded_bits, key)
    n = len(key)
    del blinded_bits, key  # before readings.csv is written
    digests.update(signal.write_readings(readings, readings_path))
    files.seal(digests)
    return (f"wrote {readings_path} ({n} readings)\n"
            f"wrote {key_path} (keep sealed until unblinding)\n")


def cmd_blinded_summary(config: RunConfig, out: str) -> str:
    """Pooled low/high summary of the blinded readings: histogram and blinded_summary.txt.

    Readings `run` did not seal are a ValueError.
    """
    readings, digests = signal.read_readings(os.path.join(out, "readings.csv"))
    files.check_seal(digests)
    summary = pipeline.blinded_summary(readings, config)
    files.write_histogram(os.path.join(out, "histogram_blinded_low.csv"), summary.low_hist)
    lines = [
        f"blinded summary of {summary.n_total} readings "
        f"(threshold {config.analysis.threshold} V)",
        _format_summary("low ", summary.low),
        _format_summary("high", summary.high),
    ]
    text = "\n".join(lines) + "\n"
    files.write_text(os.path.join(out, "blinded_summary.txt"), text)
    return text


def cmd_unblind_fit(config: RunConfig, out: str) -> str:
    """Unblind, fit and bound: fit.csv, band.csv, per-source histograms, unblind_report.txt."""
    readings_path, key_path = os.path.join(out, "readings.csv"), os.path.join(out, "key.csv")
    readings, readings_digests = signal.read_readings(readings_path)
    key, key_digests = blinding.read_key(key_path)
    if len(readings) != len(key):
        raise ValueError(f"{readings_path}: {len(readings)} readings but {key_path} has "
                         f"{len(key)} entries")
    in_key, configured = key.source_counts(), {spec.id: spec.count for spec in config.sources}
    if in_key != configured:
        raise ValueError(f"{key_path}: key source counts {in_key} do not match the configured "
                         f"{configured}")
    # after the checks above, so that a table that fails them gets their message
    files.check_seal({**readings_digests, **key_digests})
    unblinded = blinding.unblind(readings, key)
    del readings, key  # the regrouped readings are all that is read from here on
    result = pipeline.unblind_fit(unblinded, config)
    fit, mc = result.fit, result.mc
    files.write_fit(os.path.join(out, "fit.csv"), fit, mc, config.analysis.cl)
    files.write_band(os.path.join(out, "band.csv"), mc)
    for sid, hist in result.per_source_hist.items():
        files.write_histogram(os.path.join(out, f"histogram_{sid}_low.csv"), hist)

    lines = ["unblinded per-source low-voltage summaries:"]
    for sid, s in result.per_source_low.items():
        lines.append("  " + _format_summary(sid, s))
    lines += [
        "weighted linear fit of mean low voltage vs (fidelity - 1/2):",
        f"  intercept = {fit.intercept:.6e} +- {fit.sigma_intercept:.6e} V",
        f"  slope     = {fit.slope:.6e} +- {fit.sigma_slope:.6e} V",
        f"  eps       = {fit.eps:.6e} +- {fit.sigma_eps:.6e}",
        f"  Monte Carlo ({mc.n_realizations} realizations): "
        f"sd_slope = {mc.sd_slope:.6e} V, sd_intercept = {mc.sd_intercept:.6e} V",
        f"  {files.cl_percent(config.analysis.cl)}% CL bound "
        f"({config.analysis.bound_rule.value}): |eps| < {fit.bound_90:.6e}",
    ]
    text = "\n".join(lines) + "\n"
    files.write_text(os.path.join(out, "unblind_report.txt"), text)
    return text


def cmd_report(config: RunConfig, out: str) -> str:
    """run, blinded-summary and unblind-fit, each reading the files the one before wrote."""
    cmd_run(config, out)
    text = cmd_blinded_summary(config, out) + "\n" + cmd_unblind_fit(config, out)
    files.write_text(os.path.join(out, "report.txt"), text)
    return text


COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "blinded-summary": cmd_blinded_summary,
    "unblind-fit": cmd_unblind_fit,
    "report": cmd_report,
}


@functools.cache  # built once a process: `main` may run many times in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvolt",
        description="Simulate and analyze the qubit-controlled voltage switch experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="output directory")
        if name == "blinded-summary":
            p.add_argument("--key", help="not accepted: the blinded summary must not see the key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if getattr(args, "key", None) is not None:
            raise ValueError(
                "blinded-summary refuses to accept a permutation key: "
                "unblinding is a separate, explicit step"
            )
        print(COMMANDS[args.command](config, args.out), end="")
        return EXIT_OK
    except MemoryError as exc:  # an array the config sizes, too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
