from pathlib import Path

import pytest

from dtcsim.cli import (
    NODES_CSV_HEADER,
    RUNS_CSV_HEADER,
    ConfigError,
    load_config,
    main,
)


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# -- config loading ---------------------------------------------------------------

def test_defaults_without_file_or_flags():
    config = load_config(None, {})
    assert config.segments == 500
    assert config.window == 3
    assert config.hop_latency_ms == 10.0
    assert config.runs == 30
    assert config.hops == [6, 7, 8, 9, 10, 11]
    assert config.loss == [0.05, 0.10, 0.15]
    assert config.mode == "both"


def test_file_values_parsed(tmp_path):
    path = write(tmp_path / "sweep.conf", """
        # experiment grid
        hops = 6,11
        loss = 0.05          # per-hop data loss
        runs = 5
        seed = 42
        mode = baseline
    """)
    config = load_config(path, {})
    assert config.hops == [6, 11]
    assert config.loss == [0.05]
    assert config.runs == 5
    assert config.seed == 42
    assert config.mode == "baseline"


def test_flags_override_file(tmp_path):
    path = write(tmp_path / "c.conf", "loss = 0.10\n")
    config = load_config(path, {"loss": [0.15]})
    assert config.loss == [0.15]


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
])
def test_bad_flag_exits_2_naming_the_knob(argv, knob, tmp_path, capsys, no_simulation):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert knob in capsys.readouterr().err


@pytest.mark.parametrize("line, knob", [
    ("rto_max_us = 1", "rto_max"),
    ("rto_min_us = 0", "rto_min"),
    ("rto_initial_us = 0", "rto_initial"),
    ("send_spacing_us = -1", "send_spacing"),
    ("ll_wait_multiplier = 0", "ll_wait_multiplier"),
    ("max_local_retries = -1", "max_local_retries"),
])
@pytest.mark.parametrize("command", ["run", "sweep", "fig4"])
def test_bad_advanced_knob_exits_2_naming_it(line, knob, command, tmp_path, capsys,
                                             no_simulation):
    path = write(tmp_path / "c.conf", line + "\n")
    argv = RUN_ARGS + ["--hops", "3"] if command == "run" else [command, "--runs", "1"]
    assert main(argv + ["--config", path, "--out", str(tmp_path / "o")]) == 2
    assert knob in capsys.readouterr().err


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


def test_sweep_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["sweep", "--hops", "2", "--loss", "0.1", "--dtc", "both",
              "--segments", "15", "--runs", "2", "--seed", "3", "--out", str(out)])
        outs.append((out / "runs.csv").read_bytes())
    assert outs[0] == outs[1]


def test_unwritable_output_directory_exits_3(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["sweep", "--hops", "2", "--loss", "0.0", "--segments", "5",
                 "--runs", "1", "--out", str(blocker / "sub")])
    assert code == 3


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


def test_report_malformed_csv_exits_4(tmp_path):
    (tmp_path / "runs.csv").write_text("not,the,header\n")
    (tmp_path / "summary.csv").write_text("bogus\n")
    assert main(["report", str(tmp_path)]) == 4
