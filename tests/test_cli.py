import csv
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dtcsim.cli import (
    CONFIG_KEYS,
    METRICS,
    NODES_CSV_HEADER,
    RUNS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    Config,
    ConfigError,
    _build_parser,
    load_config,
    main,
)
from dtcsim.engine import LivenessError, renderer
from dtcsim.harness import RunMetrics, Scenario, run


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# -- config loading ---------------------------------------------------------------

def test_defaults_without_file_or_flags():
    config = load_config(None, {})
    assert config.scenario(6, 0.05, True) == Scenario(6, 0.05, True)
    assert config.runs == 30
    assert config.hops == [6, 7, 8, 9, 10, 11]
    assert config.loss == [0.05, 0.10, 0.15]
    assert config.dtc == "both"


def test_file_values_parsed(tmp_path):
    path = write(tmp_path / "sweep.conf", """
        # experiment grid
        hops = 6,11
        loss = 0.05          # per-hop data loss
        runs = 5
        seed = 42
        dtc = off
    """)
    config = load_config(path, {})
    assert config.hops == [6, 11]
    assert config.loss == [0.05]
    assert config.runs == 5
    assert config.seed == 42
    assert config.dtc == "off"


def test_flags_override_file(tmp_path):
    path = write(tmp_path / "c.conf", "loss = 0.10\nfast_retransmit = on\n")
    # a flag arrives as its text and is parsed like a file value
    config = load_config(path, {"loss": "0.15", "fast_retransmit": "off"})
    assert config.loss == [0.15]
    assert config.scenario(6, 0.15, True).fast_retransmit is False


def test_unknown_key_names_the_line(tmp_path):
    path = write(tmp_path / "c.conf", "losss = 0.10\n")
    with pytest.raises(ConfigError, match="losss"):
        load_config(path, {})


def test_out_of_range_value_names_the_key(tmp_path):
    path = write(tmp_path / "c.conf", "loss = 1.5\n")
    with pytest.raises(ConfigError, match="loss"):
        load_config(path, {})


def test_malformed_line_rejected(tmp_path):
    path = write(tmp_path / "c.conf", "runs 30\n")
    with pytest.raises(ConfigError):
        load_config(path, {})


def test_config_error_exits_2(tmp_path, capsys):
    path = write(tmp_path / "c.conf", "loss = 1.5\n")
    code = main(["sweep", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "loss" in capsys.readouterr().err


@pytest.fixture()
def no_simulation(monkeypatch):
    """Fail the test if a command gets as far as starting a run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a simulation started despite a bad knob")

    monkeypatch.setattr("dtcsim.cli.run_scenario", refuse)
    monkeypatch.setattr("dtcsim.cli.sweep", refuse)


RUN_ARGS = ["run", "--loss", "0.1", "--dtc", "on", "--segments", "5"]


@pytest.mark.parametrize("argv, knob", [
    (RUN_ARGS + ["--hops", "3", "--hop-latency-ms", "0.0001"], "hop_latency"),
    (RUN_ARGS + ["--hops", "3", "--hop-latency-ms", "-1"], "hop_latency"),
    (RUN_ARGS + ["--hops", "1"], "hops"),
    (RUN_ARGS + ["--hops", "3", "--segments", "0"], "segments"),
    (RUN_ARGS + ["--hops", "3", "--window", "0"], "window"),
    (["sweep", "--hops", "3", "--loss", "0.1,1.0", "--dtc", "both", "--runs", "1"], "loss"),
    # values argparse itself rejects: main returns its exit code, never raises
    (RUN_ARGS + ["--hops", "x"], "--hops"),
    (RUN_ARGS + ["--hops", "3", "--hop-latency-ms", "inf"], "--hop-latency-ms"),
    (RUN_ARGS + ["--hops", "3", "--fast-retransmit", "maybe"], "--fast-retransmit"),
    (RUN_ARGS + ["--hops", "3", "--rto-min-us", "abc"], "--rto-min-us"),
    (RUN_ARGS + ["--hops", "3", "--segments", "y"], "--segments: expected N, got 'y'"),
    (RUN_ARGS + ["--hops", "3", "--jobs", "1.5"], "--jobs: expected N, got '1.5'"),
    # an empty or repeating grid: no cells, or each repeated cell run twice
    (["sweep", "--hops", ",", "--loss", "0.1", "--runs", "1"], "hops must list"),
    (["sweep", "--hops", "3", "--loss", ",", "--runs", "1"], "loss must list"),
    (["sweep", "--hops", "3,3", "--loss", "0.1", "--runs", "1"], "hops must not repeat"),
    (["sweep", "--hops", "3", "--loss", "0.1,0.10", "--runs", "1"], "loss must not repeat"),
    # a Scenario rejection names the key that was typed, as a flag or a line
    (["run", "--hops", "3", "--loss", "1.0", "--dtc", "on"], "bad value for loss: "),
    (["run", "--hops", "3", "--dtc", "on", "--config", "loss = 1.0"], "bad value for loss: "),
    (RUN_ARGS + ["--hops", "3", "--hop-latency-ms", "0.0004"], "bad value for hop_latency_ms: "),
    (RUN_ARGS + ["--hops", "3", "--config", "hop_latency_ms = 0.0004"],
     "bad value for hop_latency_ms: "),
    # rto_min above the default rto_max: the rto_min the user set is the bad value
    (RUN_ARGS + ["--hops", "3", "--rto-min-us", "900000000"],
     "bad value for rto_min_us: rto_min must be <= rto_max (60000000 us), got 900000000"),
    (RUN_ARGS + ["--hops", "3", "--config", "rto_min_us = 900000000"],
     "bad value for rto_min_us: rto_min must be <= rto_max (60000000 us), got 900000000"),
    # the caching mode has one spelling, the same as a flag and as a line
    (RUN_ARGS + ["--hops", "3", "--dtc", "maybe"], "dtc must be on, off or both, got 'maybe'"),
    (["run", "--hops", "3", "--loss", "0.1", "--config", "dtc = maybe"],
     "dtc must be on, off or both, got 'maybe'"),
    (RUN_ARGS + ["--hops", "3", "--config", "mode = both"], "unknown key 'mode'"),
    # an rto_max below one path round trip, even above the rto_min set beside it
    (RUN_ARGS + ["--hops", "3", "--rto-min-us", "1", "--rto-max-us", "1"],
     "bad value for rto_max_us: rto_max"),
    (RUN_ARGS + ["--hops", "3", "--config", "rto_min_us = 1\nrto_max_us = 1"],
     "bad value for rto_max_us: rto_max"),
    # a loss so high over so many hops that no event budget is a number
    (["run", "--hops", "200", "--loss", "0.99", "--dtc", "off"],
     "bad value for loss: p_data must leave a finite event budget over 200 hops, got 0.99"),
    # a segment count too large for a float is its own fault, not the loss's
    (["run", "--hops", "3", "--loss", "0", "--dtc", "on", "--segments", "1" + "0" * 400],
     "bad value for segments: "),
    # so is one whose event budget 160 x segments x hops overflows, though it fits
    (["run", "--hops", "3", "--loss", "0", "--dtc", "on", "--segments", "1" + "0" * 307],
     "bad value for segments: total_segments must keep 160 x total_segments x hops"),
    # a negative seed would repeat the runs of its absolute value
    (RUN_ARGS + ["--hops", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["sweep", "--hops", "3", "--loss", "0.1", "--dtc", "on", "--runs", "3", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    # an exact parse still rejects what no float holds
    (RUN_ARGS + ["--hops", "3", "--hop-latency-ms", "nan"], "--hop-latency-ms"),
    (RUN_ARGS + ["--hops", "3", "--config", "hop_latency_ms = 1e400"],
     "hop_latency_ms: expected MS, got '1e400'"),
    # the front-end counts Scenario does not check
    (RUN_ARGS + ["--hops", "3", "--runs", "0"], "runs must be >= 1, got 0"),
    (RUN_ARGS + ["--hops", "3", "--jobs", "0"], "jobs must be >= 1, got 0"),
    # a value that does not parse reads the same as a flag and as a file line
    (RUN_ARGS + ["--hops", "3", "--fast-retransmit", "maybe"],
     "--fast-retransmit: expected on|off, got 'maybe'"),
    (RUN_ARGS + ["--hops", "3", "--config", "fast_retransmit = maybe"],
     "c.conf:1: fast_retransmit: expected on|off, got 'maybe'"),
])
def test_bad_flag_exits_2_naming_the_knob(argv, knob, tmp_path, capsys, no_simulation):
    # an argument that reads `key = value` is a config-file line: pass its file
    argv = [write(tmp_path / "c.conf", arg + "\n") if " = " in arg else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert knob in err
    assert "_parse" not in err              # the expected form, not a private function
    assert "invalid literal" not in err     # nor Python's own int() text


def test_bad_flag_text_is_one_error_line(capsys):
    # no usage block: the flag's text fails like a config line's
    assert main(["run", "--hops", "x", "--loss", "0.1", "--dtc", "on"]) == 2
    assert capsys.readouterr().err == "error: --hops: expected N[,N...], got 'x'\n"


@pytest.mark.parametrize("line, message", [
    ("hops =", "hops must list at least one value"),
    ("loss = 0.1, 0.1", "loss must not repeat a value, got 0.1,0.1"),
])
def test_empty_or_repeating_grid_in_config_file_exits_2(line, message, tmp_path, capsys,
                                                        no_simulation):
    path = write(tmp_path / "c.conf", line + "\n")
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_undecodable_config_file_exits_2(tmp_path, capsys, no_simulation):
    path = tmp_path / "c.conf"
    path.write_bytes(b"hops = 3\n\xff\n")
    assert main(RUN_ARGS + ["--hops", "3", "--config", str(path)]) == 2
    assert f"cannot read config file {path}" in capsys.readouterr().err


def test_infinite_hop_latency_exits_2(tmp_path, capsys, no_simulation):
    path = write(tmp_path / "c.conf", "hop_latency_ms = inf\n")
    assert main(RUN_ARGS + ["--hops", "3", "--config", path]) == 2
    assert "hop_latency_ms" in capsys.readouterr().err


@pytest.mark.parametrize("extra, limit", [
    (["--hop-latency-ms", "1e305"], 5_000_000),
    (["--hop-latency-ms", "20000"], 5_000_000),
    # with rto_min set, only one path round trip must fit under rto_max
    (["--hop-latency-ms", "20000", "--rto-min-us", "5"], 10_000_000),
])
def test_hops_too_slow_for_the_default_rto_max_blame_hop_latency(extra, limit, tmp_path, capsys,
                                                                  no_simulation):
    # rto_max was never set, so the latency is the knob at fault; the message
    # states the largest one these hops accept, on one short line
    argv = ["run", "--hops", "3", "--loss", "0", "--dtc", "on", "--segments", "1"] + extra
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert f"bad value for hop_latency_ms: hop_latency must be <= {limit} us over 3 hops" in line
    assert len(line) < 200


@pytest.mark.parametrize("hops, latency", [
    # too many for the default rto_max even at 1 us a hop
    pytest.param("20000000", "0.001", id="2e7"),
    # 160 x hops is above a float even at one segment
    pytest.param("1" + "0" * 307, "10", id="1e307"),
])
def test_hops_no_other_value_could_fit_blame_hops(hops, latency, tmp_path, capsys,
                                                  no_simulation):
    argv = ["run", "--hops", hops, "--loss", "0", "--dtc", "on", "--segments", "1",
            "--hop-latency-ms", latency]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: bad value for hops: hops ")
    assert len(line) < 200


@pytest.mark.parametrize("text, us", [
    ("1.001", 1001),        # 1.001 * 1000 is 1000.9999999999999 as a float
    (" 1_000.0019 ", 1_000_001),    # the spellings float() takes, truncated
])
def test_hop_latency_ms_parses_exactly(text, us):
    assert CONFIG_KEYS["hop_latency_ms"].parse(text) == us


def test_negative_zero_loss_is_zero_loss(tmp_path, capsys):
    assert main(["run", "--hops", "3", "--loss", "-0", "--dtc", "on", "--segments", "5"]) == 0
    assert "scenario: h3-p0.0-on seed=1" in capsys.readouterr().out
    # -0.0 == 0.0, so compare the spellings
    path = write(tmp_path / "c.conf", "loss = -0.0, 0.1\n")
    assert [str(p) for p in load_config(path, {}).loss] == ["0.0", "0.1"]


BAD_ADVANCED_KNOBS = [
    ("rto_max_us", "1", "rto_max"),
    ("rto_min_us", "0", "rto_min"),
    ("rto_initial_us", "0", "rto_initial"),
    ("send_spacing_us", "-1", "send_spacing"),
    ("ll_wait_multiplier", "0", "ll_wait_multiplier"),
    ("max_local_retries", "-1", "max_local_retries"),
]


# each bad value twice: as a config-file line and as the generated flag
@pytest.mark.parametrize("line, knob", [
    (f"{key} = {value}", knob) for key, value, knob in BAD_ADVANCED_KNOBS
] + [
    (f"--{key.replace('_', '-')} {value}", knob) for key, value, knob in BAD_ADVANCED_KNOBS
])
@pytest.mark.parametrize("command", ["run", "sweep", "fig4"])
def test_bad_advanced_knob_exits_2_naming_it(line, knob, command, tmp_path, capsys,
                                             no_simulation):
    argv = RUN_ARGS + ["--hops", "3"] if command == "run" else [command, "--runs", "1"]
    if line.startswith("--"):
        argv += line.split()
    else:
        argv += ["--config", write(tmp_path / "c.conf", line + "\n")]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert knob in capsys.readouterr().err


# a value Scenario rejects for each key that sets a field, as its parser returns it;
# fast_retransmit is a bool, so no value of it is bad
BAD_PARSED_VALUES = {
    "hops": [1], "loss": [1.0], "segments": 0, "window": 0, "hop_latency_ms": 0,
    "max_local_retries": -1, "ll_wait_multiplier": 0, "send_spacing_us": -1,
    "rto_min_us": 0, "rto_max_us": 1, "rto_initial_us": 0,
}


def test_scenario_rejection_starts_with_the_field_of_its_key():
    # Config.scenario finds the key by the first word of Scenario's message
    assert set(BAD_PARSED_VALUES) == {
        key for key, spec in CONFIG_KEYS.items() if spec.field is not None
    } - {"fast_retransmit"}
    for key, value in BAD_PARSED_VALUES.items():
        config = Config()
        config.set(key, value)
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert str(excinfo.value).startswith(
            f"bad value for {key}: {CONFIG_KEYS[key].field} "), key


def test_every_advanced_flag_reaches_the_scenario(tmp_path, capsys, monkeypatch):
    import dtcsim.cli

    seen = []
    monkeypatch.setattr(dtcsim.cli, "run_scenario",
                        lambda scenario, trace=None: seen.append(scenario) or run(scenario))
    flags = ["--max-local-retries", "1", "--ll-wait-multiplier", "4",
             "--send-spacing-us", "auto", "--rto-min-us", "500000",
             "--rto-max-us", "9000000", "--rto-initial-us", "700000",
             "--fast-retransmit", "on", "--hop-latency-ms", "2.5999"]
    assert main(RUN_ARGS + ["--hops", "3"] + flags) == 0
    assert seen == [Scenario(
        hops=3, p_data=0.1, dtc_enabled=True, total_segments=5, seed=1,
        max_local_retries=1, ll_wait_multiplier=4, send_spacing=None, rto_min=500_000,
        rto_max=9_000_000, rto_initial=700_000, fast_retransmit=True,
        hop_latency=2599,               # ms -> us, truncated
    )]


def test_every_config_key_is_exactly_one_flag():
    commands = _build_parser()._subparsers._group_actions[0].choices
    for command in ("run", "sweep", "fig4"):
        actions = commands[command]._actions
        for key in CONFIG_KEYS:
            options = [a.option_strings for a in actions if a.dest == key]
            assert options == [["--" + key.replace("_", "-")]], (command, key, options)


# -- run command ---------------------------------------------------------------------

def test_run_prints_metrics(capsys):
    code = main(["run", "--hops", "3", "--loss", "0.0", "--dtc", "on",
                 "--segments", "10", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "e2e_retransmissions: 0" in out
    assert "delivered_segments: 10" in out


def test_run_trace_emits_hop_lines(capsys):
    code = main(["run", "--hops", "2", "--loss", "0.0", "--dtc", "on",
                 "--segments", "2", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "HOP from=S to=0 kind=data result=delivered" in out
    assert "ACK no=3 sack={}" in out


def test_run_requires_single_cell():
    assert main(["run", "--hops", "3,4", "--loss", "0.0", "--dtc", "on"]) == 2


ONE_CELL = ["--hops", "6", "--loss", "0.2", "--dtc", "on", "--segments", "50", "--seed", "7"]


@pytest.mark.parametrize("argv", [
    ["run"] + ONE_CELL,
    ["sweep", "--runs", "2", "--jobs", "1"] + ONE_CELL,
    ["sweep", "--runs", "2", "--jobs", "2"] + ONE_CELL,     # re-raised from a pool worker
], ids=["run", "sweep-jobs-1", "sweep-jobs-2"])
def test_run_that_cannot_finish_exits_5_naming_it(argv, tmp_path, capsys, monkeypatch):
    # a real budget overrun: every run gets a tiny event budget
    monkeypatch.setattr(Scenario, "event_budget", lambda self: 50)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: h6-p0.2-on seed=7: run exceeded the 50 event budget")
    assert err.count("\n") == 1


def test_trace_streams_every_record_before_a_failure(capsys, monkeypatch):
    # a sink that held lines back would lose the ones that explain the failure
    monkeypatch.setattr(Scenario, "event_budget", lambda self: 50)
    assert main(["run"] + ONE_CELL + ["--trace"]) == 5
    out = capsys.readouterr().out
    records = []
    with pytest.raises(LivenessError):
        run(Scenario(hops=6, p_data=0.2, dtc_enabled=True, total_segments=50, seed=7),
            trace=records.append)
    written = []
    sink = renderer(6, written.append)
    for record in records:
        sink(record)
    assert records
    assert out.splitlines() == "".join(written).splitlines()


# the one error line of a write to a full device, and of one to a closed stdout
NO_SPACE = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
CLOSED = f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '<stdout>'\n"


def test_closed_stdout_exits_3_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-m", "dtcsim.cli", "run", "--hops", "11", "--loss", "0.15",
               "--dtc", "on", "--segments", "50", "--seed", "1"]
    # the reader goes away after one line, as `dtcsim run --trace | head -n 1`
    # does; the trace left to write is far more than a pipe holds
    with subprocess.Popen(command + ["--trace"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"HOP ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    assert "Traceback" not in err
    # stdout on a full device, and stdout closed at start (`>&-`)
    for argv in (command, command + ["--trace"]):
        with open("/dev/full", "wb") as full:
            done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        assert done.returncode == 3, argv
        assert done.stderr.decode() == NO_SPACE
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh"] + argv,
                              stderr=subprocess.PIPE, env=env, timeout=60)
        assert done.returncode == 3, argv
        assert done.stderr.decode() == CLOSED


class FullDevice(io.TextIOBase):
    """A stdout on a device with no space left: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    RUN_ARGS + ["--hops", "3"],
    RUN_ARGS + ["--hops", "3", "--trace"],
    ["sweep", "--hops", "3", "--loss", "0.1", "--runs", "1", "--segments", "5"],
    ["report"],
], ids=["run", "run-trace", "sweep", "report"])
def test_failed_stdout_write_exits_3_with_one_error_line(argv, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "results")
    assert main(["sweep", "--hops", "3", "--loss", "0.1", "--runs", "1", "--segments", "5",
                 "--out", out]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", FullDevice())
    assert main(argv + [out] if argv == ["report"] else argv + ["--out", out]) == 3
    assert capsys.readouterr().err == NO_SPACE


# -- sweep command ----------------------------------------------------------------------

@pytest.fixture()
def small_sweep(tmp_path):
    out = tmp_path / "results"
    code = main([
        "sweep", "--hops", "2,3", "--loss", "0.0,0.1", "--dtc", "both",
        "--segments", "20", "--runs", "2", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    return out


def test_sweep_row_arithmetic(small_sweep):
    rows = (small_sweep / "runs.csv").read_text().splitlines()
    assert len(rows) - 1 == 2 * 2 * 2 * 2      # hops x loss x modes x runs


def test_runs_csv_header_bit_exact(small_sweep):
    header = (small_sweep / "runs.csv").read_text().splitlines()[0]
    assert header == ",".join(RUNS_CSV_HEADER)
    assert header == ("scenario_id,hops,p_data,dtc,seed,e2e_retx,sender_data_tx,"
                      "local_retx,completion_time_us,delivered")


def test_summary_csv_header_bit_exact(small_sweep):
    header = (small_sweep / "summary.csv").read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_CSV_HEADER)
    assert header == ("hops,p_data,dtc,runs,mean_e2e_retx,stddev_e2e_retx,"
                      "mean_sender_data_tx,stddev_sender_data_tx,"
                      "mean_local_retx,stddev_local_retx,"
                      "mean_completion_time_us,stddev_completion_time_us,"
                      "mean_throughput_seg_s,reduction_factor")


def test_metrics_table_covers_every_written_counter():
    # rng_draws is a replay check, never written out
    fields = [m.field for m in METRICS]
    assert sorted(fields) == sorted(f for f in RunMetrics._fields if f != "rng_draws")
    assert len({m.label for m in METRICS}) == len(METRICS)
    columns = [m.column for m in METRICS if m.column is not None]
    assert columns == [c for c in RUNS_CSV_HEADER if c in columns]
    assert all(m.column is not None for m in METRICS if m.summary)


def test_summary_reduction_factor_only_on_caching_rows(small_sweep):
    lines = (small_sweep / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    factor_col = header.index("reduction_factor")
    for line in lines[1:]:
        fields = line.split(",")
        if fields[2] == "off":
            assert fields[factor_col] == ""
        else:
            assert fields[factor_col] != ""


def test_rows_rederivable_from_scenario_and_seed(small_sweep):
    from dtcsim.harness import Scenario, run as run_scenario

    lines = (small_sweep / "runs.csv").read_text().splitlines()[1:]
    sample = [line.split(",") for line in lines][:4]
    for fields in sample:
        scenario = Scenario(
            hops=int(fields[1]),
            p_data=float(fields[2]),
            dtc_enabled=fields[3] == "on",
            total_segments=20,
            seed=int(fields[4]),
        )
        metrics = run_scenario(scenario)
        assert metrics.e2e_retransmissions == int(fields[5])
        assert metrics.completion_time == int(fields[8])


def test_one_mode_sweep_has_no_reduction_factor(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["sweep", "--hops", "2,3", "--loss", "0.1", "--dtc", "on", "--segments", "5",
                 "--runs", "1", "--out", str(out)]) == 0
    with (out / "summary.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["reduction_factor"] for row in rows] == ["", ""]    # no baseline twin
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    table = capsys.readouterr().out.splitlines()[2:4]       # hops loss baseline caching factor
    assert [line.split()[:2] for line in table] == [["2", "0.10"], ["3", "0.10"]]
    assert all(line.split()[2] == "-" and line.split()[4] == "-" for line in table)


def test_sweep_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["sweep", "--hops", "2", "--loss", "0.1", "--dtc", "both",
              "--segments", "15", "--runs", "2", "--seed", "3", "--out", str(out)])
        outs.append((out / "runs.csv").read_bytes())
    assert outs[0] == outs[1]


def test_unwritable_output_directory_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["sweep", "--hops", "2", "--loss", "0.0", "--segments", "5",
                 "--runs", "1", "--out", str(blocker / "sub")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker / "sub") in err


# -- fig4 command ----------------------------------------------------------------------

def test_fig4_writes_twenty_node_rows(tmp_path):
    out = tmp_path / "fig4"
    code = main(["fig4", "--segments", "30", "--runs", "2", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "nodes.csv").read_text().splitlines()
    assert lines[0] == ",".join(NODES_CSV_HEADER) == "dtc,node_index,mean_data_tx,stddev_data_tx"
    assert len(lines) - 1 == 2 * 10
    node_indices = [int(line.split(",")[1]) for line in lines[1:]]
    assert node_indices == list(range(10)) * 2


def test_fig4_honours_runs(tmp_path, monkeypatch):
    import dtcsim.cli

    used = []
    real_sweep = dtcsim.cli.sweep

    def spy(cells, runs, base_seed, jobs=1):
        used.append((len(cells), runs))
        return real_sweep(cells, runs, base_seed, jobs=jobs)

    monkeypatch.setattr(dtcsim.cli, "sweep", spy)
    out = tmp_path / "fig4"
    assert main(["fig4", "--runs", "2", "--segments", "5", "--out", str(out)]) == 0
    assert used == [(2, 2)]                         # both modes, two runs each
    assert len((out / "nodes.csv").read_text().splitlines()) - 1 == 2 * 10


def test_fig4_ignores_the_sweep_grid(tmp_path):
    # fig4 runs its own fixed cells, so a sweep-only --hops is not checked
    out = tmp_path / "fig4"
    assert main(["fig4", "--hops", "1", "--runs", "1", "--segments", "5",
                 "--out", str(out)]) == 0
    assert len((out / "nodes.csv").read_text().splitlines()) - 1 == 2 * 10


# -- report command ----------------------------------------------------------------------

def test_report_renders_tables(small_sweep, capsys):
    assert main(["report", str(small_sweep)]) == 0
    out = capsys.readouterr().out
    assert "End-to-end retransmissions" in out
    assert "no retransmissions" in out          # the p=0 cells
    assert "Relative throughput" in out


def test_report_byte_identical_across_reruns(small_sweep, capsys):
    main(["report", str(small_sweep)])
    first = capsys.readouterr().out
    main(["report", str(small_sweep)])
    assert capsys.readouterr().out == first


def test_report_missing_csv_exits_4(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 4
    assert "missing" in capsys.readouterr().err


GOOD_OFF_ROW = "6,0.1,off,30,12.0,1,530,1,0,0,2000000,1,250,"


@pytest.mark.parametrize("summary, nodes", [
    pytest.param("bogus\n", None, id="bad-header"),
    pytest.param("6,0.1,off,30,abc,1,530,1,0,0,2000000,1,250,\n", None, id="non-numeric-mean"),
    pytest.param("6,0.1,off\n", None, id="short-row"),
    pytest.param(GOOD_OFF_ROW + "\n6,0.1,on,30,2.0,1,510,1,9,1,1000000,1,500,x\n", None,
                 id="non-numeric-factor"),
    pytest.param(GOOD_OFF_ROW + "\n", "on,x,12.0,1.0\n", id="non-numeric-node-index"),
    pytest.param("6,0.1,maybe,30,12.0,1,530,1,0,0,2000000,1,250,\n", None, id="dtc-maybe-summary"),
    pytest.param(GOOD_OFF_ROW + "\n", "maybe,0,12.0,1.0\n", id="dtc-maybe-nodes"),
])
def test_report_malformed_csv_exits_4(summary, nodes, tmp_path, capsys):
    (tmp_path / "runs.csv").write_text(",".join(RUNS_CSV_HEADER) + "\n")
    if summary != "bogus\n":
        summary = ",".join(SUMMARY_CSV_HEADER) + "\n" + summary
    (tmp_path / "summary.csv").write_text(summary)
    if nodes is not None:
        (tmp_path / "nodes.csv").write_text(",".join(NODES_CSV_HEADER) + "\n" + nodes)
    assert main(["report", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert ("summary.csv" if nodes is None else "nodes.csv: malformed row") in err


def test_report_load_profile_of_one_mode(tmp_path, capsys):
    (tmp_path / "runs.csv").write_text(",".join(RUNS_CSV_HEADER) + "\n")
    (tmp_path / "summary.csv").write_text(",".join(SUMMARY_CSV_HEADER) + "\n" + GOOD_OFF_ROW)
    (tmp_path / "nodes.csv").write_text(",".join(NODES_CSV_HEADER) + "\non,0,12.0,1.0\non,1,10.0,1.0\n")
    assert main(["report", str(tmp_path)]) == 0
    profile = capsys.readouterr().out.split("Per-node data transmissions (load profile)\n")[1]
    assert profile == "  dtc=on: node0=12.0 node1=10.0 cov=0.0909\n    12 10\n"


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\n", id="undecodable-byte"),
    pytest.param(b"x" * 131_073 + b"\n", id="field-over-csv-limit"),
])
def test_report_unreadable_csv_exits_4(content, tmp_path, capsys):
    (tmp_path / "runs.csv").write_text(",".join(RUNS_CSV_HEADER) + "\n")
    (tmp_path / "summary.csv").write_bytes((",".join(SUMMARY_CSV_HEADER) + "\n").encode()
                                           + content)
    assert main(["report", str(tmp_path)]) == 4
    assert f"cannot read {tmp_path / 'summary.csv'}" in capsys.readouterr().err
