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
from typing import Optional

from .events import US_PER_MS
from .harness import (
    DEFAULT_RUNS,
    Scenario,
    aggregate,
    reduction_factor,
    run as run_scenario,
    sweep,
)

RUNS_CSV_HEADER = [
    "scenario_id", "hops", "p_data", "dtc", "seed",
    "e2e_retx", "sender_data_tx", "local_retx", "completion_time_us", "delivered",
]
SUMMARY_CSV_HEADER = [
    "hops", "p_data", "dtc", "runs",
    "mean_e2e_retx", "stddev_e2e_retx",
    "mean_sender_data_tx", "stddev_sender_data_tx",
    "mean_local_retx", "stddev_local_retx",
    "mean_completion_time_us", "stddev_completion_time_us",
    "mean_throughput_seg_s", "reduction_factor",
]
NODES_CSV_HEADER = ["dtc", "node_index", "mean_data_tx", "stddev_data_tx"]

DEFAULT_SWEEP_HOPS = [6, 7, 8, 9, 10, 11]
DEFAULT_SWEEP_LOSS = [0.05, 0.10, 0.15]


class ConfigError(Exception):
    pass


class ReportError(Exception):
    pass


@dataclass
class Config:
    hops: list = field(default_factory=lambda: list(DEFAULT_SWEEP_HOPS))
    loss: list = field(default_factory=lambda: list(DEFAULT_SWEEP_LOSS))
    mode: str = "both"                  # dtc | baseline | both
    runs: int = DEFAULT_RUNS
    seed: int = 1
    segments: int = 500
    window: int = 3
    hop_latency_ms: float = 10.0
    out: str = "results"
    jobs: int = 1
    trace: bool = False
    # advanced knobs, normally left at their scenario defaults
    max_local_retries: int = 3
    ll_wait_multiplier: int = 3
    send_spacing_us: Optional[int] = None
    rto_min_us: Optional[int] = None
    rto_max_us: int = 60_000_000
    rto_initial_us: Optional[int] = None
    fast_retransmit: bool = False

    def validate(self) -> None:
        """Check the front-end knobs, then build every cell's Scenario.

        Scenario validates the simulation knobs itself; building the cells
        here rejects a bad value before any run starts.
        """
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.mode not in ("dtc", "baseline", "both"):
            raise ConfigError(f"mode must be dtc, baseline or both, got {self.mode!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        self.cells()

    def scenario(self, hops: int, p_data: float, dtc: bool) -> Scenario:
        try:
            return Scenario(
                hops=hops,
                p_data=p_data,
                dtc_enabled=dtc,
                total_segments=self.segments,
                window=self.window,
                hop_latency=int(self.hop_latency_ms * US_PER_MS),
                max_local_retries=self.max_local_retries,
                ll_wait_multiplier=self.ll_wait_multiplier,
                send_spacing=self.send_spacing_us,
                rto_min=self.rto_min_us,
                rto_max=self.rto_max_us,
                rto_initial=self.rto_initial_us,
                fast_retransmit=self.fast_retransmit,
            )
        except ValueError as exc:
            raise ConfigError(f"bad scenario knob: {exc}") from exc

    def cells(self) -> list:
        """One Scenario per (hops, loss, mode), in sweep order."""
        return [
            self.scenario(h, p, dtc)
            for h in self.hops
            for p in self.loss
            for dtc in self.modes()
        ]

    def modes(self) -> list:
        if self.mode == "dtc":
            return [True]
        if self.mode == "baseline":
            return [False]
        return [False, True]


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


# config-file key -> (attribute, parser)
CONFIG_KEYS = {
    "hops": ("hops", _parse_int_list),
    "loss": ("loss", _parse_float_list),
    "mode": ("mode", str.strip),
    "runs": ("runs", int),
    "seed": ("seed", int),
    "segments": ("segments", int),
    "window": ("window", int),
    "hop_latency_ms": ("hop_latency_ms", float),
    "out": ("out", str.strip),
    "jobs": ("jobs", int),
    "max_local_retries": ("max_local_retries", int),
    "ll_wait_multiplier": ("ll_wait_multiplier", int),
    "send_spacing_us": ("send_spacing_us", _parse_optional_int),
    "rto_min_us": ("rto_min_us", _parse_optional_int),
    "rto_max_us": ("rto_max_us", int),
    "rto_initial_us": ("rto_initial_us", _parse_optional_int),
    "fast_retransmit": ("fast_retransmit", _parse_bool),
}


def load_config(path: Optional[str], overrides: dict) -> Config:
    """Defaults, then `key = value` lines from the file, then flag overrides."""
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
            attr, parse = CONFIG_KEYS[key]
            try:
                setattr(config, attr, parse(value))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw} ({exc})") from exc
    for attr, value in overrides.items():
        if value is not None:
            setattr(config, attr, value)
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
            s, m = record.scenario, record.metrics
            writer.writerow([
                _scenario_id(s), s.hops, s.p_data, _dtc_label(s.dtc_enabled), s.seed,
                m.e2e_retransmissions, m.sender_data_tx,
                m.local_retransmissions_total, m.completion_time, m.delivered_segments,
            ])


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
                f"{agg.mean_e2e_retx:.6f}", f"{agg.stddev_e2e_retx:.6f}",
                f"{agg.mean_sender_data_tx:.6f}", f"{agg.stddev_sender_data_tx:.6f}",
                f"{agg.mean_local_retx:.6f}", f"{agg.stddev_local_retx:.6f}",
                f"{agg.mean_completion_time:.6f}", f"{agg.stddev_completion_time:.6f}",
                f"{agg.mean_throughput():.6f}", factor,
            ])


def _write_nodes_csv(path: Path, aggregates) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(NODES_CSV_HEADER)
        for agg in aggregates:
            for index, (mean, std) in enumerate(
                zip(agg.mean_per_node_tx, agg.stddev_per_node_tx)
            ):
                writer.writerow([
                    _dtc_label(agg.dtc_enabled), index, f"{mean:.6f}", f"{std:.6f}",
                ])


def _grouped_records(records, per_cell: int):
    return [records[i:i + per_cell] for i in range(0, len(records), per_cell)]


# -- commands -----------------------------------------------------------------


def cmd_run(config: Config) -> int:
    if len(config.hops) != 1 or len(config.loss) != 1 or config.mode == "both":
        raise ConfigError("run takes exactly one hops value, one loss value, "
                          "and --dtc on or off")
    scenario = dataclasses.replace(
        config.scenario(config.hops[0], config.loss[0], config.mode == "dtc"),
        seed=config.seed,
    )
    trace_lines = [] if config.trace else None
    metrics = run_scenario(scenario, trace=trace_lines.append if config.trace else None)
    if trace_lines:
        for line in trace_lines:
            print(line)
    print(f"scenario: {_scenario_id(scenario)} seed={scenario.seed}")
    print(f"e2e_retransmissions: {metrics.e2e_retransmissions}")
    print(f"sender_data_tx: {metrics.sender_data_tx}")
    print(f"local_retransmissions: {metrics.local_retransmissions_total}")
    print(f"per_node_data_tx: {','.join(str(n) for n in metrics.per_node_data_tx)}")
    print(f"completion_time_us: {metrics.completion_time}")
    print(f"delivered_segments: {metrics.delivered_segments}")
    return 0


def cmd_sweep(config: Config) -> int:
    cells = config.cells()
    records = sweep(cells, config.runs, config.seed, jobs=config.jobs)
    aggregates = [aggregate(group) for group in _grouped_records(records, config.runs)]
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_runs_csv(out / "runs.csv", records)
        _write_summary_csv(out / "summary.csv", aggregates)
    except OSError as exc:
        print(f"error: cannot write results to {out}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(records)} runs to {out / 'runs.csv'}")
    print(f"wrote {len(aggregates)} cells to {out / 'summary.csv'}")
    return 0


def cmd_fig4(config: Config) -> int:
    # fixed load-profile cell: longest chain at the midpoint loss rate
    profile = dataclasses.replace(config)
    profile.hops, profile.loss, profile.mode = [11], [0.10], "both"
    cells = profile.cells()
    records = sweep(cells, profile.runs, profile.seed, jobs=profile.jobs)
    aggregates = [aggregate(group) for group in _grouped_records(records, profile.runs)]
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_nodes_csv(out / "nodes.csv", aggregates)
    except OSError as exc:
        print(f"error: cannot write results to {out}: {exc}", file=sys.stderr)
        return 3
    rows = sum(len(a.mean_per_node_tx) for a in aggregates)
    print(f"wrote {rows} node rows to {out / 'nodes.csv'}")
    return 0


# -- report -------------------------------------------------------------------


def _read_csv(path: Path, expected_header) -> list:
    if not path.is_file():
        raise ReportError(f"missing {path.name} in {path.parent}")
    try:
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != expected_header:
        raise ReportError(f"{path.name}: unexpected header {rows[0] if rows else '(empty)'}")
    return rows[1:]


def _render_report(directory: Path) -> str:
    summary = _read_csv(directory / "summary.csv", SUMMARY_CSV_HEADER)
    _read_csv(directory / "runs.csv", RUNS_CSV_HEADER)
    try:
        cells = {}
        for row in summary:
            key = (int(row[0]), float(row[1]))
            cells.setdefault(key, {})[row[2]] = row
    except (ValueError, IndexError) as exc:
        raise ReportError(f"summary.csv: malformed row ({exc})") from exc

    lines = []
    lines.append("End-to-end retransmissions (mean per run)")
    lines.append(f"{'hops':>5} {'loss':>6} {'baseline':>12} {'caching':>12} {'factor':>8}")
    for (hops, loss) in sorted(cells):
        modes = cells[(hops, loss)]
        base = modes.get("off")
        dtc = modes.get("on")
        base_mean = float(base[4]) if base else None
        dtc_mean = float(dtc[4]) if dtc else None
        cols = [
            f"{base_mean:>12.1f}" if base_mean is not None else f"{'-':>12}",
            f"{dtc_mean:>12.1f}" if dtc_mean is not None else f"{'-':>12}",
        ]
        if base_mean == 0.0 and (dtc_mean is None or dtc_mean == 0.0):
            factor_text = "no retransmissions"
        else:
            factor = dtc[13] if dtc and dtc[13] else ""
            factor_text = f"{float(factor):>8.2f}" if factor else f"{'-':>8}"
        lines.append(f"{hops:>5} {loss:>6.2f} {cols[0]} {cols[1]} {factor_text}")

    lines.append("")
    lines.append("Relative throughput (mean completion time, baseline / caching)")
    lines.append(f"{'hops':>5} {'loss':>6} {'speedup':>8}")
    for (hops, loss) in sorted(cells):
        modes = cells[(hops, loss)]
        if "off" in modes and "on" in modes:
            base_t = float(modes["off"][10])
            dtc_t = float(modes["on"][10])
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
                by_mode.setdefault(row[0], []).append((int(row[1]), float(row[2])))
        except (ValueError, IndexError) as exc:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtcsim",
        description="Event-driven simulator for in-network TCP segment caching "
                    "on a lossy multi-hop chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        p.add_argument("--hops", type=_parse_int_list, metavar="N[,N...]")
        p.add_argument("--loss", type=_parse_float_list, metavar="P[,P...]")
        p.add_argument("--dtc", choices=["on", "off", "both"],
                       help="caching on, off, or both modes")
        p.add_argument("--segments", type=int)
        p.add_argument("--window", type=int)
        p.add_argument("--runs", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--hop-latency-ms", type=float, dest="hop_latency_ms")
        p.add_argument("--out", metavar="DIR")
        p.add_argument("--jobs", type=int, help="parallel runs for sweeps")

    p_run = sub.add_parser("run", help="execute a single run")
    add_common(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="print the per-event trace log")

    p_sweep = sub.add_parser("sweep", help="grid of cells -> runs.csv, summary.csv")
    add_common(p_sweep)

    p_fig4 = sub.add_parser("fig4", help="per-node load profile -> nodes.csv")
    add_common(p_fig4)

    p_report = sub.add_parser("report", help="print tables from result CSVs")
    p_report.add_argument("directory", help="directory holding the CSVs")
    return parser


_MODE_BY_FLAG = {"on": "dtc", "off": "baseline", "both": "both"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args.directory)
    overrides = {
        "hops": args.hops,
        "loss": args.loss,
        "mode": _MODE_BY_FLAG[args.dtc] if args.dtc else None,
        "segments": args.segments,
        "window": args.window,
        "runs": args.runs,
        "seed": args.seed,
        "hop_latency_ms": args.hop_latency_ms,
        "out": args.out,
        "jobs": args.jobs,
    }
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
