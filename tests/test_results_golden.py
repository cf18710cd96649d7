"""Byte-for-byte pin of every results file and of `run`, `run --trace` (caching on
and off, and with an ll wait of one and of two hop latencies) and `report` stdout.

One small sweep and one small fig4 write into the same directory, so the
report renders all three of its tables. The goldens were recorded on
Python 3.11; rewrite them (only for a change meant to alter results) with

    PYTHONPATH=src python tests/test_results_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from dtcsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "results"

SWEEP = ["sweep", "--hops", "3,6", "--loss", "0.05,0.15", "--dtc", "both",
         "--runs", "3", "--segments", "40", "--seed", "5"]
FIG4 = ["fig4", "--runs", "3", "--segments", "40", "--seed", "5"]
RUN = ["run", "--hops", "6", "--loss", "0.15", "--dtc", "on", "--segments", "40", "--seed", "5"]
# losses on several hops and local retransmissions, in 240 lines
RUN_TRACE = ["run", "--hops", "4", "--loss", "0.15", "--dtc", "on", "--segments", "10",
             "--seed", "5", "--trace"]
# the same run with caching off: every node a relay, 16 losses in 190 lines
RUN_TRACE_OFF = ["run", "--hops", "4", "--loss", "0.15", "--dtc", "off", "--segments", "10",
                 "--seed", "5", "--trace"]
# the caching run with an ll wait of two hop latencies: each ll timeout
# ties its ll ack and pops first, so it locks the entry, in 274 lines
RUN_TRACE_LLWAIT2 = RUN_TRACE + ["--ll-wait-multiplier", "2"]
# and with an ll wait of one hop latency: each ll timeout fires at its own
# frame's arrival, tied with that arrival in time and ordered after it by
# its insertion number, and locks the entry, in 287 lines with 25 locks
RUN_TRACE_LLWAIT1 = RUN_TRACE + ["--ll-wait-multiplier", "1"]

FILES = ["runs.csv", "summary.csv", "nodes.csv", "run.txt", "run_trace.txt", "run_trace_off.txt",
         "run_trace_llwait1.txt", "run_trace_llwait2.txt", "report.txt"]


def _stdout(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def produce(out: Path) -> None:
    """Write every golden file into `out`."""
    _stdout(SWEEP + ["--out", str(out)])
    _stdout(FIG4 + ["--out", str(out)])
    (out / "run.txt").write_text(_stdout(RUN))
    (out / "run_trace.txt").write_text(_stdout(RUN_TRACE))
    (out / "run_trace_off.txt").write_text(_stdout(RUN_TRACE_OFF))
    (out / "run_trace_llwait1.txt").write_text(_stdout(RUN_TRACE_LLWAIT1))
    (out / "run_trace_llwait2.txt").write_text(_stdout(RUN_TRACE_LLWAIT2))
    (out / "report.txt").write_text(_stdout(["report", str(out)]))


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    produce(out)
    return out


@pytest.mark.parametrize("name", FILES)
def test_results_byte_identical_to_golden(name, produced):
    assert (produced / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    produce(GOLDEN)
    print(f"wrote {', '.join(FILES)} to {GOLDEN}", file=sys.stderr)
