import json

import pytest

from heavycover.cli import UsageError, build_parser, run_command

TRIANGLE = '{"kind":"POINTS","points":[["0","0"],["4","0"],["0","4"]]}'
TRILINES = ('{"kind":"LINES","lines":['
            '{"normal":["0","1"],"offset":"0"},'
            '{"normal":["1","0"],"offset":"0"},'
            '{"normal":["1","1"],"offset":"4"}]}')


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def lines_file(tmp_path):
    path = tmp_path / "lines.json"
    path.write_text(TRILINES)
    return str(path)


def test_depth_command(triangle_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_command(["depth", "--point", "1,1", "--in", triangle_file,
                        "--out", str(out)])
    assert code == 0
    assert "depth 1 of 1" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["count"] == 1
    assert report["fraction"] == "1"


def test_depth_rational_point(triangle_file):
    assert run_command(["depth", "--point", "1/2,3/4", "--in", triangle_file]) == 0


def test_maxdepth_command(triangle_file, tmp_path):
    out = tmp_path / "m.json"
    code = run_command(["maxdepth", "--in", triangle_file, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["argmax"] == ["0", "0"]
    assert report["count"] == 1


def test_dual_and_maxdual_commands(lines_file, tmp_path):
    assert run_command(["dual", "--point", "1,1", "--in", lines_file]) == 0
    out = tmp_path / "md.json"
    assert run_command(["maxdual", "--in", lines_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["argmax"] == ["0", "0"]


def test_expose_command(lines_file, tmp_path):
    out = tmp_path / "e.json"
    assert run_command(["expose", "--point", "1,1", "--in", lines_file,
                        "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["arc_counts"] == [1, 1, 1]
    assert report["exposed"]["arcs"] == []


def test_extremal_command(tmp_path):
    out = tmp_path / "x.json"
    assert run_command(["extremal", "9", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_count"] <= 27
    assert report["product_bound_floor"] == 27


def test_transversal_command(tmp_path):
    out = tmp_path / "t.json"
    assert run_command(["transversal", "--seed", "5", "--n", "12",
                        "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for srep in report["per_set"]:
        assert srep["count"] >= srep["median_floor_count"]


def test_sweep_command_plots_every_sample(tmp_path):
    out = tmp_path / "s.json"
    plot = tmp_path / "sweep.svg"
    code = run_command(["sweep", "--seed", "3", "--n", "5", "--samples", "6",
                        "--tau", "0", "--out", str(out), "--plot", str(plot),
                        "--grid", "8"])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["samples"]) == 6
    frames = sorted(tmp_path.glob("sweep_*.svg"))
    assert len(frames) == 7  # one per sample plus the timeline strip
    assert (tmp_path / "sweep_timeline.svg") in frames


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_command(["depth", "--point", "1,1"]) == 1
    assert run_command(["depth", "--point", "bogus", "--seed", "1"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":"POINTS","points":[["1e9","0"]]}')
    assert run_command(["depth", "--point", "1,1", "--in", str(bad)]) == 1
    assert run_command(["unknowncmd"]) == 1


def test_cli_json_and_svg_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        plot = tmp_path / f"{tag}.svg"
        code = run_command(["maxdepth", "--seed", "9", "--n", "8",
                            "--out", str(out), "--plot", str(plot),
                            "--grid", "10"])
        assert code == 0
        outs.append((out.read_bytes(), plot.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_threads_do_not_change_artifacts(tmp_path):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        assert run_command(["maxdepth", "--seed", "12", "--n", "9",
                            "--threads", threads, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["maxdepth", "maxdual", "verify"])
def test_threads_below_one_is_a_usage_error(command, capsys):
    # rejected while parsing, before any dataset or worker pool exists
    assert run_command([command, "--seed", "1", "--threads", "0"]) == 1
    assert "argument --threads: must be at least 1" in capsys.readouterr().err
    with pytest.raises(UsageError):
        build_parser().parse_args([command, "--threads", "-3"])


@pytest.mark.parametrize("command", ["maxdepth", "maxdual", "verify"])
def test_threads_clamped_to_cpu_count(command, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    parse = build_parser().parse_args
    assert parse([command, "--threads", "64"]).threads == 4
    assert parse([command, "--threads", "3"]).threads == 3
    monkeypatch.setattr("os.cpu_count", lambda: None)  # unknown CPU count
    assert parse([command, "--threads", "2"]).threads == 1


def test_verify_command_smoke(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run_command(["verify", "--seed", "7", "--trials", "1",
                        "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS oracle_equivalence" in captured
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 10
