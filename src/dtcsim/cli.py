"""Command-line front end: config loading, sweeps, CSV emission, reports.

Commands:
    run     one scenario, metrics to stdout (optionally a full event trace)
    sweep   grid of (hops, loss, mode) cells -> runs.csv + summary.csv
    fig4    per-node load profile preset (11 hops, 10% loss) -> nodes.csv
    report  human-readable tables from a directory of CSVs

Exit codes: 0 success, 2 configuration error, 3 output I/O error,
4 report input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .events import US_PER_MS
from .harness import (
    DEFAULT_RUNS,
    Scenario,
    aggregate,
    reduction_factor,
    run as run_scenario,
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

DEFAULT_SWEEP_HOPS = [6, 7, 8, 9, 10, 11]
DEFAULT_SWEEP_LOSS = [0.05, 0.10, 0.15]


class ConfigError(Exception):
    pass


class ReportError(Exception):
    pass


def _parse_int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> list:
    return [float(part) for part in text.split(",") if part.strip()]


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
    """Milliseconds to whole microseconds, truncated toward zero."""
    try:
        return int(float(text) * US_PER_MS)
    except OverflowError as exc:
        raise ValueError(f"not a finite time: {text!r}") from exc


class Key(NamedTuple):
    """One config key; its flag is --key with underscores as dashes."""

    parse: Callable[[str], object]      # text -> value, for the file and the flag
    field: Optional[str]                # Scenario field it sets; None for front-end keys
    metavar: Optional[str] = None
    help: Optional[str] = None


# config key -> how to read it and where it goes; Scenario holds the defaults.
# hops and loss are the sweep grid: Config keeps their lists, and each cell
# sets its field from one value of each
CONFIG_KEYS = {
    "hops": Key(_parse_int_list, "hops", "N[,N...]"),
    "loss": Key(_parse_float_list, "p_data", "P[,P...]"),
    "mode": Key(str, None),             # its flag is --dtc on|off|both
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


_DTC_BY_MODE = {"dtc": [True], "baseline": [False], "both": [False, True]}

# fig4's fixed load-profile cells, the longest chain at the midpoint loss
# rate; they replace the grid flags, so only these cells are validated
FIG4_GRID = {"hops": [11], "loss": [0.10], "mode": "both"}


@dataclass
class Config:
    hops: list = field(default_factory=lambda: list(DEFAULT_SWEEP_HOPS))
    loss: list = field(default_factory=lambda: list(DEFAULT_SWEEP_LOSS))
    mode: str = "both"                  # dtc | baseline | both
    runs: int = DEFAULT_RUNS
    seed: int = 1
    out: str = "results"
    jobs: int = 1
    trace: bool = False
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
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.mode not in _DTC_BY_MODE:
            raise ConfigError(f"mode must be dtc, baseline or both, got {self.mode!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
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
        """One Scenario per (hops, loss, mode), in sweep order."""
        return [
            self.scenario(h, p, dtc)
            for h in self.hops
            for p in self.loss
            for dtc in _DTC_BY_MODE[self.mode]
        ]


def load_config(path: Optional[str], overrides: dict) -> Config:
    """Defaults, then `key = value` lines from the file, then flag overrides.

    `overrides` maps config keys to values as their parsers return them
    (so `hop_latency_ms` arrives in microseconds); None means not given.
    """
    config = Config()
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got: {raw}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in: {raw}")
            try:
                config.set(key, CONFIG_KEYS[key].parse(value))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw} ({exc})") from exc
    for key, value in overrides.items():
        if value is not None:
            config.set(key, value)
    config.validate()
    return config


# -- csv emission -------------------------------------------------------------


def _dtc_label(enabled: bool) -> str:
    return "on" if enabled else "off"


def _scenario_id(scenario: Scenario) -> str:
    return f"h{scenario.hops}-p{scenario.p_data}-{_dtc_label(scenario.dtc_enabled)}"


def _write_runs_csv(path: Path, records) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RUNS_CSV_HEADER)
        for record in records:
            s = record.scenario
            writer.writerow([
                _scenario_id(s), s.hops, s.p_data, _dtc_label(s.dtc_enabled), s.seed,
            ] + [getattr(record.metrics, m.field) for m in _RUNS_METRICS])


def _write_summary_csv(path: Path, aggregates) -> None:
    by_cell = {(a.hops, a.p_data, a.dtc_enabled): a for a in aggregates}
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_CSV_HEADER)
        for agg in aggregates:
            factor = ""
            if agg.dtc_enabled:
                base = by_cell.get((agg.hops, agg.p_data, False))
                if base is not None:
                    factor = f"{reduction_factor(base, agg):.6f}"
            writer.writerow([
                agg.hops, agg.p_data, _dtc_label(agg.dtc_enabled), agg.runs,
            ] + [
                f"{getattr(stat, m.field):.6f}"
                for m in _SUMMARY_METRICS for stat in (agg.mean, agg.stddev)
            ] + [f"{agg.mean_throughput():.6f}", factor])


def _write_nodes_csv(path: Path, aggregates) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(NODES_CSV_HEADER)
        for agg in aggregates:
            for index, (mean, std) in enumerate(
                zip(agg.mean.per_node_data_tx, agg.stddev.per_node_data_tx)
            ):
                writer.writerow([
                    _dtc_label(agg.dtc_enabled), index, f"{mean:.6f}", f"{std:.6f}",
                ])


# -- commands -----------------------------------------------------------------


def cmd_run(config: Config) -> int:
    if len(config.hops) != 1 or len(config.loss) != 1 or config.mode == "both":
        raise ConfigError("run takes exactly one hops value, one loss value, "
                          "and --dtc on or off")
    scenario = dataclasses.replace(
        config.scenario(config.hops[0], config.loss[0], config.mode == "dtc"),
        seed=config.seed,
    )
    metrics = run_scenario(scenario, trace=print if config.trace else None)
    print(f"scenario: {_scenario_id(scenario)} seed={scenario.seed}")
    for m in METRICS:
        value = getattr(metrics, m.field)
        if isinstance(value, tuple):
            value = ",".join(str(n) for n in value)
        print(f"{m.label}: {value}")
    return 0


def _sweep_and_write(config: Config, write) -> int:
    """Run config's cells config.runs times each, aggregate per cell, write the results.

    `write(out, records, aggregates)` writes the files into the output
    directory and returns the lines to print; an OSError exits 3.
    """
    records = sweep(config.cells(), config.runs, config.seed, jobs=config.jobs)
    aggregates = [aggregate(records[i:i + config.runs])
                  for i in range(0, len(records), config.runs)]
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        lines = write(out, records, aggregates)
    except OSError as exc:
        print(f"error: cannot write results to {out}: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0


def cmd_sweep(config: Config) -> int:
    def write(out, records, aggregates):
        _write_runs_csv(out / "runs.csv", records)
        _write_summary_csv(out / "summary.csv", aggregates)
        return [f"wrote {len(records)} runs to {out / 'runs.csv'}",
                f"wrote {len(aggregates)} cells to {out / 'summary.csv'}"]

    return _sweep_and_write(config, write)


def cmd_fig4(config: Config) -> int:
    def write(out, records, aggregates):
        _write_nodes_csv(out / "nodes.csv", aggregates)
        rows = sum(len(a.mean.per_node_data_tx) for a in aggregates)
        return [f"wrote {rows} node rows to {out / 'nodes.csv'}"]

    return _sweep_and_write(config, write)


# -- report -------------------------------------------------------------------


def _read_csv(path: Path, expected_header) -> list:
    """The rows under the expected header, each a dict keyed by column name."""
    if not path.is_file():
        raise ReportError(f"missing {path.name} in {path.parent}")
    try:
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != expected_header:
        raise ReportError(f"{path.name}: unexpected header {rows[0] if rows else '(empty)'}")
    return [dict(zip(expected_header, row)) for row in rows[1:]]


def _render_report(directory: Path) -> str:
    summary = _read_csv(directory / "summary.csv", SUMMARY_CSV_HEADER)
    _read_csv(directory / "runs.csv", RUNS_CSV_HEADER)
    try:
        cells = {}                      # (hops, loss) -> dtc label -> parsed columns
        for row in summary:
            factor = row["reduction_factor"]
            cells.setdefault((int(row["hops"]), float(row["p_data"])), {})[row["dtc"]] = {
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
                by_mode.setdefault(row["dtc"], []).append(
                    (int(row["node_index"]), float(row["mean_data_tx"])))
        except (ValueError, KeyError) as exc:
            raise ReportError(f"nodes.csv: malformed row ({exc})") from exc
        for mode in ("off", "on"):
            if mode not in by_mode:
                continue
            means = [m for _, m in sorted(by_mode[mode])]
            mean = statistics.fmean(means)
            cov = statistics.pstdev(means) / mean if mean else 0.0
            lines.append(f"  mode={mode}: node0={means[0]:.1f} node{len(means) - 1}={means[-1]:.1f} "
                         f"cov={cov:.4f}")
            lines.append("    " + " ".join(f"{m:.0f}" for m in means))
    return "\n".join(lines) + "\n"


def cmd_report(directory: str) -> int:
    try:
        print(_render_report(Path(directory)), end="")
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


# -- argument parsing ----------------------------------------------------------


_MODE_BY_FLAG = {"on": "dtc", "off": "baseline", "both": "both"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtcsim",
        description="Event-driven simulator for in-network TCP segment caching "
                    "on a lossy multi-hop chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flag_type(spec):
        # argparse would name the parser function; report the expected form
        def parse(text):
            try:
                return spec.parse(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"expected {spec.metavar}, got {text!r}") from exc
        return parse

    def add_common(p):
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        for key, spec in CONFIG_KEYS.items():
            if key == "mode":
                p.add_argument("--dtc", dest="mode", choices=list(_MODE_BY_FLAG),
                               help="caching on, off, or both modes")
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=flag_type(spec),
                               metavar=spec.metavar, help=spec.help)

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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:           # argparse has printed usage and the error
        return exc.code
    if args.command == "report":
        return cmd_report(args.directory)
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    if args.mode is not None:
        overrides["mode"] = _MODE_BY_FLAG[args.mode]
    if args.command == "fig4":
        overrides.update(FIG4_GRID)
    if getattr(args, "trace", False):
        overrides["trace"] = True
    try:
        config = load_config(args.config, overrides)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        return cmd_fig4(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
