"""Command-line front end: config loading, sweeps, CSV emission, reports.

Commands:
    run     one scenario, metrics to stdout (optionally a full event trace)
    sweep   grid of (hops, loss, dtc) cells -> runs.csv + summary.csv
    fig4    per-node load profile preset (11 hops, 10% loss) -> nodes.csv
    report  human-readable tables from a directory of CSVs

Commands raise on failure, and `EXIT_CODES` in `main` decides every exit
code: 0 success, 2 configuration error (ConfigError), 3 a failed write to
stdout or to the results directory (OSError: a closed pipe, a full device,
stdout closed at start, an unwritable --out), 4 report input error
(ReportError), 5 a run that could not finish (LivenessError).  Each failure
prints one `error:` line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from .engine import LivenessError, renderer
from .events import US_PER_MS
from .harness import (
    Scenario,
    aggregate,
    check_count,
    dtc_label,
    reduction_factor,
    run as run_scenario,
    shown,
    sweep,
)


class Metric(NamedTuple):
    """One RunMetrics counter and the names it is written out under."""

    field: str                          # RunMetrics field
    label: str                          # `dtcsim run` line label
    column: Optional[str]               # runs.csv column; None: the per-node vector
    summary: bool                       # summary.csv has mean_<column>, stddev_<column>


# every counter a run reports, in output order; rng_draws is a replay
# check and is never written out
METRICS = [
    Metric("e2e_retransmissions", "e2e_retransmissions", "e2e_retx", True),
    Metric("sender_data_tx", "sender_data_tx", "sender_data_tx", True),
    Metric("local_retransmissions_total", "local_retransmissions", "local_retx", True),
    Metric("per_node_data_tx", "per_node_data_tx", None, False),    # nodes.csv
    Metric("completion_time", "completion_time_us", "completion_time_us", True),
    Metric("delivered_segments", "delivered_segments", "delivered", False),
]
_RUNS_METRICS = [m for m in METRICS if m.column is not None]
_SUMMARY_METRICS = [m for m in METRICS if m.summary]

RUNS_CSV_HEADER = ["scenario_id", "hops", "p_data", "dtc", "seed"] + [
    m.column for m in _RUNS_METRICS]
SUMMARY_CSV_HEADER = ["hops", "p_data", "dtc", "runs"] + [
    f"{stat}_{m.column}" for m in _SUMMARY_METRICS for stat in ("mean", "stddev")
] + ["mean_throughput_seg_s", "reduction_factor"]
NODES_CSV_HEADER = ["dtc", "node_index", "mean_data_tx", "stddev_data_tx"]


class ConfigError(Exception):
    pass


class ReportError(Exception):
    pass


def _parse_int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> list:
    # + 0.0 turns -0.0 into 0.0, so a zero loss has one name
    return [float(part) + 0.0 for part in text.split(",") if part.strip()]


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "on", "yes"):
        return True
    if value in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_optional_int(text: str) -> Optional[int]:
    value = text.strip().lower()
    return None if value in ("", "none", "auto") else int(text)


def _parse_ms_as_us(text: str) -> int:
    """Decimal milliseconds to whole microseconds, exactly, truncated toward zero."""
    # float() rejects a bad spelling; inf, nan and a time no float holds go
    # before Decimal turns them into a huge exact int
    if not math.isfinite(float(text) * US_PER_MS):
        raise ValueError(f"not a finite time: {text!r}")
    sign, digits, exponent = Decimal(text).as_tuple()
    return int(Decimal((sign, digits, exponent + 3)))      # x US_PER_MS (10**3), exactly


class Key(NamedTuple):
    """One config key; its flag is --key with underscores as dashes."""

    parse: Callable[[str], object]      # text -> value, for the file and the flag
    field: Optional[str]                # Scenario field it sets; None for front-end keys
    metavar: str                        # the form a value takes, in help and errors
    help: Optional[str] = None


# config key -> how to read it and where it goes; Scenario holds the defaults.
# hops and loss are the sweep grid: Config keeps their lists, and each cell
# sets its field from one value of each
CONFIG_KEYS = {
    "hops": Key(_parse_int_list, "hops", "N[,N...]"),
    "loss": Key(_parse_float_list, "p_data", "P[,P...]"),
    "dtc": Key(str, None, "on|off|both", help="caching on, off, or both modes"),
    "segments": Key(int, "total_segments", "N"),
    "window": Key(int, "window", "N"),
    "runs": Key(int, None, "N"),
    "seed": Key(int, None, "N"),
    "hop_latency_ms": Key(_parse_ms_as_us, "hop_latency", "MS"),
    "out": Key(str, None, "DIR"),
    "jobs": Key(int, None, "N", help="parallel runs for sweeps"),
    "max_local_retries": Key(int, "max_local_retries", "N"),
    "ll_wait_multiplier": Key(int, "ll_wait_multiplier", "N"),
    "send_spacing_us": Key(_parse_optional_int, "send_spacing", "US|auto"),
    "rto_min_us": Key(_parse_optional_int, "rto_min", "US|auto"),
    "rto_max_us": Key(int, "rto_max", "US"),
    "rto_initial_us": Key(_parse_optional_int, "rto_initial", "US|auto"),
    "fast_retransmit": Key(_parse_bool, "fast_retransmit", "on|off"),
}


_DTC_BY_MODE = {"on": [True], "off": [False], "both": [False, True]}

# fig4's fixed load-profile cells, the longest chain at the midpoint loss
# rate, as flag text; they replace the grid flags, so only these cells are
# validated
FIG4_GRID = {"hops": "11", "loss": "0.10", "dtc": "both"}


@dataclass
class Config:
    hops: list = field(default_factory=lambda: [6, 7, 8, 9, 10, 11])
    loss: list = field(default_factory=lambda: [0.05, 0.10, 0.15])
    dtc: str = "both"                   # on | off | both
    runs: int = 30
    seed: int = 1
    out: str = "results"
    jobs: int = 1
    knobs: dict = field(default_factory=dict)   # Scenario field -> value, as given

    def set(self, key: str, value) -> None:
        if hasattr(self, key):          # a front-end key or a grid axis
            setattr(self, key, value)
        else:
            self.knobs[CONFIG_KEYS[key].field] = value

    def validate(self) -> None:
        """Check the front-end knobs, then build every cell's Scenario.

        Scenario validates the simulation knobs itself; building the cells
        here rejects a bad value before any run starts.
        """
        # each cell carries seed 0, so its Scenario cannot check the seed
        try:
            for knob, least in (("runs", 1), ("seed", 0), ("jobs", 1)):
                check_count(knob, getattr(self, knob), least)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.dtc not in _DTC_BY_MODE:
            raise ConfigError(f"dtc must be on, off or both, got {shown(self.dtc)!r}")
        for knob in ("hops", "loss"):
            values = getattr(self, knob)
            if not values:
                raise ConfigError(f"{knob} must list at least one value, got none")
            if len(set(values)) != len(values):
                # a repeated cell would run twice with the same seeds
                raise ConfigError(f"{knob} must not repeat a value, got "
                                  f"{','.join(str(v) for v in values)}")
        self.cells()

    def scenario(self, hops: int, p_data: float, dtc: bool) -> Scenario:
        try:
            return Scenario(hops=hops, p_data=p_data, dtc_enabled=dtc, **self.knobs)
        except ValueError as exc:
            # Scenario's message starts with the field; name the key that set it
            field = str(exc).split()[0]
            key = next((k for k, spec in CONFIG_KEYS.items() if spec.field == field), field)
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    def cells(self) -> list:
        """One Scenario per (hops, loss, dtc), in sweep order."""
        return [
            self.scenario(h, p, dtc)
            for h in self.hops
            for p in self.loss
            for dtc in _DTC_BY_MODE[self.dtc]
        ]


def load_config(path: Optional[str], overrides: dict) -> Config:
    """Defaults, then `key = value` lines from the file, then flag overrides.

    `overrides` maps config keys to their flag text; None means not given.
    A file value and a flag's text go through the same parser, and a value
    it rejects is named by where it came from: `<file>:<line>: key` or
    `--flag`.
    """
    config = Config()
    given = []                          # (where, key, text), in the order they apply
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got: {shown(raw)}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {shown(key)!r} in: {shown(raw)}")
            given.append((f"{path}:{lineno}: {key}", key, value))
    given += [("--" + key.replace("_", "-"), key, text)
              for key, text in overrides.items() if text is not None]
    for where, key, text in given:
        spec = CONFIG_KEYS[key]
        try:
            config.set(key, spec.parse(text))
        except ValueError as exc:
            raise ConfigError(f"{where}: expected {spec.metavar}, got {shown(text)!r}") from exc
    config.validate()
    return config


# -- csv emission -------------------------------------------------------------


def _write_csv(path: Path, header: list, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_runs_csv(path: Path, records) -> None:
    _write_csv(path, RUNS_CSV_HEADER, (
        [s.cell_id, s.hops, s.p_data, dtc_label(s.dtc_enabled), s.seed]
        + [getattr(metrics, m.field) for m in _RUNS_METRICS]
        for s, metrics in records
    ))


def _write_summary_csv(path: Path, aggregates) -> None:
    """One row per cell; a caching row's factor divides by its cell's baseline row."""
    by_cell = {agg.cell: agg for agg in aggregates}
    rows = []
    for agg in aggregates:
        cell = agg.cell
        factor = ""
        if cell.dtc_enabled:
            base = by_cell.get(dataclasses.replace(cell, dtc_enabled=False))
            if base is not None:
                factor = f"{reduction_factor(base, agg):.6f}"
        rows.append([cell.hops, cell.p_data, dtc_label(cell.dtc_enabled), agg.runs] + [
            f"{getattr(stat, m.field):.6f}"
            for m in _SUMMARY_METRICS for stat in (agg.mean, agg.stddev)
        ] + [f"{agg.mean_throughput():.6f}", factor])
    _write_csv(path, SUMMARY_CSV_HEADER, rows)


def _write_nodes_csv(path: Path, aggregates) -> None:
    _write_csv(path, NODES_CSV_HEADER, (
        [dtc_label(agg.cell.dtc_enabled), index, f"{mean:.6f}", f"{std:.6f}"]
        for agg in aggregates
        for index, (mean, std) in enumerate(
            zip(agg.mean.per_node_data_tx, agg.stddev.per_node_data_tx))
    ))


# -- commands -----------------------------------------------------------------


# the counts of a per-node line that one write takes: under 48 KB of text,
# as a count is at most the event budget cap, of 10 digits
COUNTS_PER_WRITE = 4096


def cmd_run(config: Config, trace: bool) -> None:
    cells = config.cells()
    if len(cells) != 1:
        raise ConfigError("run takes exactly one hops value, one loss value, "
                          "and --dtc on or off")
    scenario = dataclasses.replace(cells[0], seed=config.seed)
    if trace:
        with renderer(scenario.hops, sys.stdout.write) as sink:
            metrics = run_scenario(scenario, trace=sink)
    else:
        metrics = run_scenario(scenario)
    print(f"scenario: {scenario.cell_id} seed={scenario.seed}")
    write = sys.stdout.write
    for m in METRICS:
        value = getattr(metrics, m.field)
        if not isinstance(value, tuple):
            print(f"{m.label}: {value}")
            continue
        # a per-node line, written COUNTS_PER_WRITE counts at a time, so a
        # long chain's line is never held as one string
        write(f"{m.label}: ")
        for i in range(0, len(value), COUNTS_PER_WRITE):
            write(("," if i else "") + ",".join(map(str, value[i:i + COUNTS_PER_WRITE])))
        write("\n")


def _sweep(config: Config) -> tuple:
    """Run config's cells config.runs times each and aggregate per cell.

    Returns (records, aggregates, out), the output directory made before
    the runs, so an unwritable one fails before any run.
    """
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    records = sweep(config.cells(), config.runs, config.seed, jobs=config.jobs)
    aggregates = [aggregate(records[i:i + config.runs])
                  for i in range(0, len(records), config.runs)]
    return records, aggregates, out


def cmd_sweep(config: Config) -> None:
    records, aggregates, out = _sweep(config)
    _write_runs_csv(out / "runs.csv", records)
    _write_summary_csv(out / "summary.csv", aggregates)
    print(f"wrote {len(records)} runs to {out / 'runs.csv'}")
    print(f"wrote {len(aggregates)} cells to {out / 'summary.csv'}")


def cmd_fig4(config: Config) -> None:
    _, aggregates, out = _sweep(config)
    _write_nodes_csv(out / "nodes.csv", aggregates)
    rows = sum(len(a.mean.per_node_data_tx) for a in aggregates)
    print(f"wrote {rows} node rows to {out / 'nodes.csv'}")


# -- report -------------------------------------------------------------------


def _read_csv(path: Path, expected_header) -> Iterator[dict]:
    """The rows under the expected header, each a dict keyed by column name,
    read one at a time."""
    if not path.is_file():
        raise ReportError(f"missing {path.name} in {path.parent}")
    try:
        with path.open(newline="") as handle:
            rows = csv.reader(handle)
            header = next(rows, None)
            if header != expected_header:
                raise ReportError(f"{path.name}: unexpected header "
                                  f"{'(empty)' if header is None else header}")
            for row in rows:
                yield dict(zip(expected_header, row))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc


def _mode_of(row: dict) -> str:
    """The row's dtc column, which names one caching mode."""
    if row["dtc"] not in ("on", "off"):
        raise ValueError(f"dtc must be on or off, got {row['dtc']!r}")
    return row["dtc"]


def _render_report(directory: Path) -> str:
    summary = list(_read_csv(directory / "summary.csv", SUMMARY_CSV_HEADER))
    # runs.csv is only checked, so its rows are read and dropped one by one
    for _ in _read_csv(directory / "runs.csv", RUNS_CSV_HEADER):
        pass
    try:
        cells = {}                      # (hops, loss) -> dtc label -> parsed columns
        for row in summary:
            factor = row["reduction_factor"]
            cells.setdefault((int(row["hops"]), float(row["p_data"])), {})[_mode_of(row)] = {
                "e2e": float(row["mean_e2e_retx"]),
                "time": float(row["mean_completion_time_us"]),
                "factor": float(factor) if factor else None,
            }
    except (ValueError, KeyError) as exc:
        raise ReportError(f"summary.csv: malformed row ({exc})") from exc

    lines = []
    lines.append("End-to-end retransmissions (mean per run)")
    lines.append(f"{'hops':>5} {'loss':>6} {'baseline':>12} {'caching':>12} {'factor':>8}")
    for (hops, loss) in sorted(cells):
        modes = cells[(hops, loss)]
        base_mean = modes["off"]["e2e"] if "off" in modes else None
        dtc_mean = modes["on"]["e2e"] if "on" in modes else None
        cols = [
            f"{base_mean:>12.1f}" if base_mean is not None else f"{'-':>12}",
            f"{dtc_mean:>12.1f}" if dtc_mean is not None else f"{'-':>12}",
        ]
        if base_mean == 0.0 and (dtc_mean is None or dtc_mean == 0.0):
            factor_text = "no retransmissions"
        else:
            factor = modes["on"]["factor"] if "on" in modes else None
            factor_text = f"{factor:>8.2f}" if factor is not None else f"{'-':>8}"
        lines.append(f"{hops:>5} {loss:>6.2f} {cols[0]} {cols[1]} {factor_text}")

    lines.append("")
    lines.append("Relative throughput (mean completion time, baseline / caching)")
    lines.append(f"{'hops':>5} {'loss':>6} {'speedup':>8}")
    for (hops, loss) in sorted(cells):
        modes = cells[(hops, loss)]
        if "off" in modes and "on" in modes:
            base_t = modes["off"]["time"]
            dtc_t = modes["on"]["time"]
            speedup = base_t / dtc_t if dtc_t > 0 else float("inf")
            lines.append(f"{hops:>5} {loss:>6.2f} {speedup:>8.2f}")

    nodes_path = directory / "nodes.csv"
    if nodes_path.is_file():
        node_rows = _read_csv(nodes_path, NODES_CSV_HEADER)
        lines.append("")
        lines.append("Per-node data transmissions (load profile)")
        by_mode = {}
        try:
            for row in node_rows:
                by_mode.setdefault(_mode_of(row), []).append(
                    (int(row["node_index"]), float(row["mean_data_tx"])))
        except (ValueError, KeyError) as exc:
            raise ReportError(f"nodes.csv: malformed row ({exc})") from exc
        for mode in ("off", "on"):
            if mode not in by_mode:
                continue
            means = [m for _, m in sorted(by_mode[mode])]
            mean = statistics.fmean(means)
            cov = statistics.pstdev(means) / mean if mean else 0.0
            lines.append(f"  dtc={mode}: node0={means[0]:.1f} node{len(means) - 1}={means[-1]:.1f} "
                         f"cov={cov:.4f}")
            lines.append("    " + " ".join(f"{m:.0f}" for m in means))
    return "\n".join(lines) + "\n"


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtcsim",
        description="Event-driven simulator for in-network TCP segment caching "
                    "on a lossy multi-hop chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # a flag's text is parsed by load_config, like a file value
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        for key, spec in CONFIG_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, metavar=spec.metavar,
                           help=spec.help)

    p_run = sub.add_parser("run", help="execute a single run")
    add_common(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="stream the per-event trace log")

    p_sweep = sub.add_parser("sweep", help="grid of cells -> runs.csv, summary.csv")
    add_common(p_sweep)

    p_fig4 = sub.add_parser("fig4", help="per-node load profile -> nodes.csv")
    add_common(p_fig4)

    p_report = sub.add_parser("report", help="print tables from result CSVs")
    p_report.add_argument("directory", help="directory holding the CSVs")
    return parser


# every failure a command raises -> its exit code; an OSError is a failed
# write, to stdout or to the results directory
EXIT_CODES = {ConfigError: 2, OSError: 3, ReportError: 4, LivenessError: 5}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:           # a malformed command line, or --help
        return exc.code
    try:
        if args.command == "report":
            print(_render_report(Path(args.directory)), end="")
        else:
            overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
            if args.command == "fig4":
                overrides.update(FIG4_GRID)
            config = load_config(args.config, overrides)
            if args.command == "run":
                cmd_run(config, args.trace)
            elif args.command == "sweep":
                cmd_sweep(config)
            else:
                cmd_fig4(config)
        sys.stdout.flush()              # a full or closed stdout fails here at the latest
    except tuple(EXIT_CODES) as exc:    # a LivenessError names the run and seed
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return 0


class _ClosedStdout(io.TextIOBase):
    """The stdout of a process started without one: every write fails."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")


def entrypoint() -> None:
    if sys.stdout is None:              # started with stdout closed (`dtcsim run >&-`)
        sys.stdout = _ClosedStdout()
    code = main()
    try:
        sys.stdout.flush()              # only output a failed command left unwritten
    except OSError:
        # stdout cannot take it: point stdout at devnull so the interpreter's
        # final flush cannot raise again; the exit code stays main's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
