"""The four benchmark workloads: inputs made from a seed, one timed program call per item.

Every workload uses consecutive seeds from its base seed, so the same seed
set runs in every repetition.  An item is the unit the benchmark times: one
``harness.run`` call on the chains, one ``dtcsim run --trace`` on trace-run,
one whole ``dtcsim sweep`` on sweep-grid.  Results come back as runs.csv
rows, which the caller checks and digests.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import re
import time
from pathlib import Path
from typing import Optional

SEGMENTS = 500
CHAIN_HOPS = 11
CHAIN_LOSS = 0.15
CHAIN_SEEDS = 16            # seeds per repetition on the chains and trace-run
TRACE_SEEDS = 4             # leading seeds a traced pass runs
GRID_HOPS = (6, 8, 11)
GRID_LOSS = (0.05, 0.1, 0.15)
GRID_RUNS = 1               # runs per grid cell in one sweep
MAX_JOBS = 4                # pool size cap, whatever the core count

RUNS_CSV_HEADER = [
    "scenario_id", "hops", "p_data", "dtc", "seed",
    "e2e_retx", "sender_data_tx", "local_retx", "completion_time_us", "delivered",
]
COL = {name: i for i, name in enumerate(RUNS_CSV_HEADER)}
SCENARIO_ID = re.compile(r"h(\d+)-p(.+)-(on|off)")


@dataclasses.dataclass
class Run:
    """One simulated run's result in runs.csv form."""

    row: list                           # runs.csv columns as strings
    trace_sha: Optional[str] = None     # sha256 of the run's stdout (trace-run)

    @property
    def key(self) -> str:
        return f"{self.row[0]} seed={self.row[4]}"

    def digest(self) -> str:
        text = ",".join(self.row) + ("" if self.trace_sha is None else "\n" + self.trace_sha)
        return hashlib.sha256(text.encode()).hexdigest()

    def invariant_errors(self) -> list:
        errors = []
        delivered = int(self.row[COL["delivered"]])
        sent = int(self.row[COL["sender_data_tx"]])
        retx = int(self.row[COL["e2e_retx"]])
        if delivered != SEGMENTS:
            errors.append(f"delivered {delivered} != total {SEGMENTS}")
        if sent != SEGMENTS + retx:
            errors.append(f"sender_data_tx {sent} != total {SEGMENTS} + e2e_retx {retx}")
        return errors


def runs_digest(runs: list) -> str:
    """sha256 of the runs as a runs.csv file, then each run's trace digest."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(RUNS_CSV_HEADER)
    for run in runs:
        writer.writerow(run.row)
    tail = "".join(run.trace_sha + "\n" for run in runs if run.trace_sha is not None)
    return hashlib.sha256((text.getvalue() + tail).encode()).hexdigest()


def scenario_id(hops: int, p_data: float, dtc: bool) -> str:
    return f"h{hops}-p{p_data}-{'on' if dtc else 'off'}"


@dataclasses.dataclass
class Item:
    keys: list                          # run keys the item must produce, in order
    segments: int                       # simulated segments the item delivers
    arg: object                         # Scenario (chains) or cli argv


@dataclasses.dataclass
class Context:
    tmp: Path                           # scratch directory inside the checkout
    jobs: int                           # pool size on sweep-grid
    tracer: object = None               # set while a timed traced pass runs


class _HashingRaw(io.RawIOBase):
    """Byte sink keeping only a sha256 and the last few KiB."""

    TAIL = 4096

    def __init__(self) -> None:
        super().__init__()
        self.sha = hashlib.sha256()
        self.tail = b""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha.update(data)
        self.tail = (self.tail + bytes(data))[-self.TAIL:]
        return len(data)


class StdoutSink(io.TextIOWrapper):
    """Captured stdout: hashed and discarded, so it holds no trace in memory."""

    def __init__(self, tracer=None) -> None:
        raw = _HashingRaw()
        super().__init__(io.BufferedWriter(raw, 1 << 16), encoding="utf-8", newline="\n")
        self.hashing = raw
        if tracer is not None:
            self.write = tracer.wrap_callable(super().write, "cli.stdout")

    def finish(self) -> tuple[str, list]:
        """(sha256 of everything written, last lines), and close."""
        self.flush()
        digest = self.hashing.sha.hexdigest()
        lines = self.hashing.tail.decode("utf-8", "replace").splitlines()
        self.close()
        return digest, lines


def _call_cli(dt, argv: list, ctx: Context) -> tuple[int, int, str, list]:
    """cli.main(argv) with stdout captured: (exit code, host ns, sha, last lines)."""
    sink = StdoutSink(ctx.tracer)
    with contextlib.redirect_stdout(sink):
        t0 = time.perf_counter_ns()
        code = dt.cli.main(argv)
        ns = time.perf_counter_ns() - t0
    digest, lines = sink.finish()
    return code, ns, digest, lines


class _SeedSet:
    """A workload of one item per seed, run in this process."""

    single_process = True       # the reference loop runs on this process's core only

    def trace_items(self, items: list) -> list:
        return items[:TRACE_SEEDS]

    def probe_items(self, items: list) -> list:
        return items[:1]


class Chain(_SeedSet):
    """Serial harness.run calls on the costliest grid cell."""

    def __init__(self, name: str, dtc: bool) -> None:
        self.name, self.dtc = name, dtc

    def setup(self, dt, seed: int, ctx: Context) -> list:
        items = []
        for k in range(CHAIN_SEEDS):
            scenario = dt.harness.Scenario(
                hops=CHAIN_HOPS, p_data=CHAIN_LOSS, dtc_enabled=self.dtc,
                total_segments=SEGMENTS, seed=seed + k,
            )
            key = f"{scenario_id(CHAIN_HOPS, CHAIN_LOSS, self.dtc)} seed={seed + k}"
            items.append(Item([key], SEGMENTS, scenario))
        return items

    def execute(self, dt, item: Item, ctx: Context) -> tuple[int, list]:
        scenario = item.arg
        t0 = time.perf_counter_ns()
        m = dt.harness.run(scenario)
        ns = time.perf_counter_ns() - t0
        row = [
            scenario_id(scenario.hops, scenario.p_data, scenario.dtc_enabled),
            scenario.hops, scenario.p_data, "on" if scenario.dtc_enabled else "off",
            scenario.seed, m.e2e_retransmissions, m.sender_data_tx,
            m.local_retransmissions_total, m.completion_time, m.delivered_segments,
        ]
        return ns, [Run([str(v) for v in row])]


class TraceRun(_SeedSet):
    """`dtcsim run --trace` on the caching chain, stdout hashed and discarded."""

    name = "trace-run"

    def setup(self, dt, seed: int, ctx: Context) -> list:
        items = []
        for k in range(CHAIN_SEEDS):
            argv = ["run", "--hops", str(CHAIN_HOPS), "--loss", str(CHAIN_LOSS), "--dtc", "on",
                    "--segments", str(SEGMENTS), "--seed", str(seed + k), "--trace"]
            key = f"{scenario_id(CHAIN_HOPS, CHAIN_LOSS, True)} seed={seed + k}"
            items.append(Item([key], SEGMENTS, argv))
        return items

    def execute(self, dt, item: Item, ctx: Context) -> tuple[int, list]:
        code, ns, digest, lines = _call_cli(dt, item.arg, ctx)
        if code != 0:
            raise RuntimeError(f"dtcsim run exited with {code}")
        summary = dict(line.split(": ", 1) for line in lines[-7:] if ": " in line)
        scenario, seed = summary["scenario"].split(" seed=")
        hops, loss, dtc = SCENARIO_ID.fullmatch(scenario).groups()
        row = [
            scenario, hops, loss, dtc, seed,
            summary["e2e_retransmissions"], summary["sender_data_tx"],
            summary["local_retransmissions"], summary["completion_time_us"],
            summary["delivered_segments"],
        ]
        return ns, [Run(row, digest)]


class SweepGrid:
    """`dtcsim sweep` over the acceptance grid through the multiprocessing pool."""

    name = "sweep-grid"
    single_process = False

    def _argv(self, seed: int, runs: int, jobs: int, out: Path) -> list:
        return ["sweep", "--hops", ",".join(map(str, GRID_HOPS)),
                "--loss", ",".join(map(str, GRID_LOSS)), "--dtc", "both",
                "--runs", str(runs), "--segments", str(SEGMENTS), "--seed", str(seed),
                "--jobs", str(jobs), "--out", str(out)]

    def _item(self, seed: int, runs: int, jobs: int, out: Path) -> Item:
        keys = []
        for hops in GRID_HOPS:
            for loss in GRID_LOSS:
                for dtc in (False, True):
                    for k in range(runs):
                        keys.append(f"{scenario_id(hops, loss, dtc)} seed={seed + k}")
        return Item(keys, SEGMENTS * len(keys), self._argv(seed, runs, jobs, out))

    def setup(self, dt, seed: int, ctx: Context) -> list:
        return [self._item(seed, GRID_RUNS, ctx.jobs, ctx.tmp / "sweep")]

    def execute(self, dt, item: Item, ctx: Context) -> tuple[int, list]:
        out = Path(item.arg[item.arg.index("--out") + 1])
        runs_csv = out / "runs.csv"
        runs_csv.unlink(missing_ok=True)
        code, ns, _, _ = _call_cli(dt, item.arg, ctx)
        if code != 0:
            raise RuntimeError(f"dtcsim sweep exited with {code}")
        with runs_csv.open(newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != RUNS_CSV_HEADER:
            raise RuntimeError(f"runs.csv header changed: {rows[0]}")
        return ns, [Run(row) for row in rows[1:]]

    def trace_items(self, items: list) -> list:
        return items

    def probe_items(self, items: list) -> list:
        # counts and argument streams come from one serial in-process sweep
        # with one run per cell; the pool would keep them in the workers
        argv = items[0].arg
        seed = int(argv[argv.index("--seed") + 1])
        out = Path(argv[argv.index("--out") + 1])
        return [self._item(seed, 1, 1, out)]


WORKLOADS = {
    w.name: w for w in (
        Chain("chain-baseline", False),
        Chain("chain-dtc", True),
        SweepGrid(),
        TraceRun(),
    )
}
