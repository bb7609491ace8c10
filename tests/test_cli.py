import hashlib
import json
import multiprocessing.process

import pytest

from heavycover import cli, dual
from heavycover.cli import (
    MAX_EXTREMAL,
    MAX_GRID,
    MAX_POINTS,
    MAX_SAMPLES,
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    MAX_WALK_POINTS,
    UsageError,
    build_parser,
    run_command,
)
from heavycover.datasets import (
    Dataset,
    emit_dataset,
    random_line_family,
    random_point_set,
)
from heavycover.dual import max_dual_depth_point
from heavycover.selection import LabeledPointSet, max_depth_point

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


def test_expose_builds_one_profile(monkeypatch):
    # the exposed and almost-exposed arcs come from the one profile printed
    calls = []
    arc_profile = dual._arc_profile

    def counted(*args):
        calls.append(args)
        return arc_profile(*args)

    monkeypatch.setattr(dual, "_arc_profile", counted)
    assert run_command(["expose", "--seed", "1", "--point", "1,2"]) == 0
    assert len(calls) == 1


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
                        "--tau", "0", "--out", str(out), "--plot", str(plot)])
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


@pytest.mark.parametrize("command, option, value", [
    (["depth"], "--point", "-1,2"),
    (["dual"], "--point", "-1,2"),
    (["expose"], "--point", "-1,2"),
    (["sweep", "--n", "6", "--samples", "3"], "--tau", "-1/5"),
], ids=["depth", "dual", "expose", "sweep"])
def test_negative_point_value_needs_no_equals_sign(command, option, value, tmp_path,
                                                   capsys):
    outputs = []
    for spelling in ([option, value], [f"{option}={value}"]):
        out = tmp_path / "out.json"
        assert run_command([*command, "--seed", "1", *spelling, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_expose_on_a_parallel_family_is_an_error(tmp_path, capsys):
    # y = 0 and y = 2 are parallel; the query between them is off every line
    path = tmp_path / "in.json"
    path.write_text(_lines_json((0, 1, 0), (0, 1, 2), (1, 0, 0)))
    assert run_command(["expose", "--in", str(path), "--point", "1,1"]) == 1
    assert capsys.readouterr().err == "error: projection directions are collinear\n"


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


def test_depth_plot_of_non_planar_data_writes_nothing(tmp_path, capsys):
    # --plot on 3-D points is refused before the depth is printed or --out written
    data = tmp_path / "space.json"
    data.write_text('{"kind":"POINTS","points":[["0","0","0"],["4","0","0"],'
                    '["0","4","0"],["0","0","4"]]}')
    out, plot = tmp_path / "o.json", tmp_path / "o.svg"
    assert run_command(["depth", "--in", str(data), "--point", "1,1,1",
                        "--out", str(out), "--plot", str(plot)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: only planar datasets can be plotted\n")
    assert not out.exists() and not plot.exists()
    assert run_command(["depth", "--in", str(data), "--point", "1,1,1",
                        "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 1


@pytest.mark.parametrize("point", ["1", "1,2,3"])
def test_depth_query_of_wrong_dimension_is_located(point, capsys):
    # the sweep route reports the dimension mismatch, not "planar only"
    assert run_command(["depth", "--seed", "1", "--point", point]) == 1
    err = capsys.readouterr().err
    dim = len(point.split(","))
    assert err == f"error: query dimension {dim} != data dimension 2\n"


@pytest.mark.parametrize("command", ["dual", "expose"])
@pytest.mark.parametrize("point", ["1", "1,2,3"])
def test_line_query_of_wrong_dimension_is_located(command, point, capsys):
    # a query against planar lines names its own dimension, not "planar only"
    assert run_command([command, "--seed", "1", "--point", point]) == 1
    err = capsys.readouterr().err
    dim = len(point.split(","))
    assert err == f"error: query dimension {dim} != data dimension 2\n"


def _lines_json(*lines):
    return json.dumps({"kind": "LINES", "lines": [
        {"normal": [str(a), str(b)], "offset": str(c)} for a, b, c in lines]})


@pytest.mark.parametrize("command, text, err", [
    # four lines through the origin: C(4, 3) concurrent triples
    ("maxdual", _lines_json((0, 1, 0), (1, 0, 0), (1, 1, 0), (1, -1, 0), (1, 2, 5)),
     "error: line family is not in general position: concurrent (0, 1, 2) "
     "and 3 more\n"),
    # y = 0 and y = 2, x = 0 and x = 2, and y = 2, x = 2, x + y = 4 through (2, 2)
    ("maxdual", _lines_json((0, 1, 0), (1, 0, 0), (0, 1, 2), (1, 0, 2), (1, 1, 4)),
     "error: line family is not in general position: parallel (0, 2) and 2 more\n"),
    ("maxdepth", '{"kind":"POINTS","points":[["0","0"],["4","0"],["0","4"],'
                 '["2","0"],["5","7"]]}',
     "error: point set is not in general position: collinear (0, 1, 3)\n"),
], ids=["concurrent", "parallel", "collinear"])
def test_general_position_errors_name_the_first_violation(command, text, err,
                                                          tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert run_command([command, "--in", str(path)]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", [["depth", "--point", "1,1"], ["transversal"]],
                         ids=["depth", "transversal"])
def test_list_colors_are_a_located_error(command, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text('{"kind":"COLORED_POINTS","points":[["0","0"],["4","0"],["0","4"]],'
                    '"colors":[[1],[2],[3]]}')
    assert run_command([*command, "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: colors[0]: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, text, err", [
    (["depth", "--point", "1,1"],
     '{"kind":"COLORED_POINTS","points":[["0","0"],["4","0"],["0","4"]],"colors":[0,1]}',
     "error: colors: expected 3 colors, one per point, got 2\n"),
    (["sweep"],
     '{"kind":"PATH","keyframes":[{"time":"0","points":[["0","0"],["4","0"],["0","4"]]},'
     '{"time":"1/2","points":[["0","0"],["4","0"],["0","4"]]},'
     '{"time":"1","points":[["0","0"],["4","0"]]}]}',
     "error: keyframes[2].points: expected 3 points of dimension 2 as in keyframes[0], "
     "got 2 of dimension 2\n"),
    (["sweep"],
     '{"kind":"PATH","keyframes":[{"time":"0","points":[["0","0"],["4","0"],["0","4"]]},'
     '{"time":"1","points":[["0","0","1"],["4","0","1"],["0","4","1"]]}]}',
     "error: keyframes[1].points: expected 3 points of dimension 2 as in keyframes[0], "
     "got 3 of dimension 3\n"),
], ids=["colors", "keyframe-size", "keyframe-dimension"])
def test_shape_mismatches_are_located_errors(command, text, err, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert run_command([*command, "--in", str(path)]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["depth", "maxdepth", "dual", "maxdual"])
def test_grid_above_the_cap_is_a_usage_error(command):
    # parsing only: no grid is sampled
    point = ["--point", "1,1"] if command in ("depth", "dual") else []
    args = build_parser().parse_args([command, *point, "--grid", str(MAX_GRID)])
    assert args.grid == MAX_GRID == 560
    with pytest.raises(UsageError, match="argument --grid: must be at most 560, got 561"):
        build_parser().parse_args([command, *point, "--grid", "561"])


@pytest.mark.parametrize("command, flag, value", [
    (["expose", "--seed", "7", "--n", "8", "--point", "1/3,1/5"], "--plot", "e.svg"),
    (["transversal", "--seed", "8", "--n", "12"], "--plot", "t.svg"),
    (["expose", "--seed", "7", "--n", "8", "--point", "1/3,1/5"], "--grid", "40"),
    (["transversal", "--seed", "8", "--n", "12"], "--grid", "40"),
    (["sweep", "--seed", "3", "--n", "5", "--samples", "6"], "--grid", "8"),
])
def test_plot_flags_only_where_they_are_read(command, flag, value, tmp_path, capsys):
    # a command that draws no plot, or no sampled grid, refuses the flag
    # rather than dropping it: exit 1 and nothing written
    out = tmp_path / "o.json"
    args = [*command, "--out", str(out), flag, str(tmp_path / value)
            if flag == "--plot" else value]
    assert run_command(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments: " + flag)
    assert list(tmp_path.iterdir()) == []


def test_extremal_above_the_cap_is_a_usage_error():
    # parsing only: no family is searched
    assert build_parser().parse_args(["extremal", str(MAX_EXTREMAL)]).size == MAX_EXTREMAL == 300
    with pytest.raises(UsageError, match="argument size: must be at most 300, got 301"):
        build_parser().parse_args(["extremal", "301"])
    with pytest.raises(UsageError, match="argument size: invalid int value: 'x'"):
        build_parser().parse_args(["extremal", "x"])


@pytest.mark.parametrize("command, flag, bound", [
    (["depth", "--point", "1,1"], "--n", MAX_POINTS),
    (["dual", "--point", "1,1"], "--n", MAX_POINTS),
    (["expose", "--point", "1,1"], "--n", MAX_POINTS),
    (["transversal"], "--n", MAX_POINTS),
    (["maxdual"], "--n", MAX_POINTS),
    (["maxdepth"], "--n", MAX_WALK_POINTS),
    (["sweep"], "--n", MAX_SWEEP_POINTS),
    (["sweep"], "--samples", MAX_SAMPLES),
    (["verify"], "--trials", MAX_TRIALS),
], ids=["depth", "dual", "expose", "transversal", "maxdual", "maxdepth", "sweep-n",
        "sweep-samples", "verify-trials"])
def test_resource_bounds_are_usage_errors(command, flag, bound, monkeypatch, capsys):
    # each bound sits above every size CI and the tests run; the bound itself
    # parses, and one more exits 1 at the parser: no dataset is generated
    # and no command runs
    assert (MAX_POINTS, MAX_WALK_POINTS, MAX_SWEEP_POINTS, MAX_SAMPLES, MAX_TRIALS) == \
        (400, 160, 40, 1001, 500)
    args = build_parser().parse_args([*command, flag, str(bound)])
    assert getattr(args, flag[2:]) == bound

    def refuse(args):
        raise AssertionError("a command ran past its bound")

    monkeypatch.setitem(cli._COMMANDS, command[0], refuse)
    assert run_command([*command, "--seed", "1", flag, str(bound + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {flag}: must be at most {bound}, got {bound + 1}\n"


@pytest.mark.parametrize("flags, err", [
    (["--jump-threshold", "-1", "--data-threshold", "100"],
     "error: jump_threshold must be at least 0, got -1\n"),
    (["--data-threshold", "-1"], "error: data_threshold must be at least 0, got -1\n"),
    (["--jump-threshold", "-1/2", "--data-threshold", "100"],
     "error: jump_threshold must be at least 0, got -1/2\n"),
    (["--data-threshold", "-1/3"], "error: data_threshold must be at least 0, got -1/3\n"),
], ids=["jump", "data", "jump-fraction", "data-fraction"])
def test_sweep_rejects_negative_thresholds(flags, err, capsys):
    assert run_command(["sweep", "--seed", "1", "--n", "6", *flags]) == 1
    assert capsys.readouterr().err == err


def test_no_search_starts_a_process(tmp_path, monkeypatch):
    # every search runs in the calling process, and the library's ignored
    # threads= keyword gives the default result
    def searches(threads):
        out = tmp_path / f"t{threads}.json"
        code = run_command(["maxdepth", "--seed", "1", "--n", "14",
                            "--out", str(out)])
        return (max_depth_point(random_point_set(18, 5), threads=threads),
                max_dual_depth_point(random_line_family(12, 5), threads=threads),
                code, out.read_bytes())

    serial = searches(1)

    def refuse(process):
        raise AssertionError("a search started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    assert searches(2) == serial


@pytest.mark.parametrize("command", ["maxdepth", "maxdual", "verify"])
def test_threads_flag_is_unrecognized(command, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run_command([command, "--seed", "1", "--threads", "2",
                        "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 2" in err
    assert "Traceback" not in err
    assert not out.exists()


# the count flags each command takes
COUNT_FLAGS = {"maxdepth": ("--n", "--grid"), "maxdual": ("--n", "--grid"),
               "verify": ("--trials",)}


@pytest.mark.parametrize("command", ["maxdepth", "maxdual", "verify"])
def test_count_below_one_is_a_usage_error(command, tmp_path, capsys):
    # rejected while parsing, before any dataset or plot exists
    plot = tmp_path / "x.svg"
    for flag in COUNT_FLAGS[command]:
        argv = [command, "--seed", "1", flag, "0"]
        if flag == "--grid":
            argv += ["--plot", str(plot)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least 1" in err
        assert "Traceback" not in err
        with pytest.raises(UsageError):
            build_parser().parse_args([command, flag, "-3"])
    assert not plot.exists()


def test_verify_command_smoke(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run_command(["verify", "--seed", "7", "--trials", "1",
                        "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS oracle_equivalence" in captured
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 11
    # the same bytes on Python 3.11, 3.12 and 3.13
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "61e00386f0334a318f9b39fe1d88db4ca0d5426f110e62a50cd5e45e15886acd"


# sha256 of the canonical --out JSON of fixed-seed runs; any change to a
# reported number, point, witness or key shows here
PINNED_OUT = {
    "depth": (["depth", "--seed", "3", "--n", "9", "--point", "1/3,1/7"],
              "95c54de628c8c52d2929a9877a774932778910866371a180a5655a7a0bebd21b"),
    "maxdepth": (["maxdepth", "--seed", "4", "--n", "12"],
                 "99b04d176519f490e6e770fc7b6815678195f588dbc51e30221aa2a09b7f35a1"),
    "dual": (["dual", "--seed", "5", "--n", "10", "--point", "1/3,-1/5"],
             "6f6c90d672069229ab49f4df9b5cd1aa68e9e5259a8fa19cfe5b1ed0b798c8ed"),
    "expose": (["expose", "--seed", "6", "--n", "9", "--point", "2/7,1/9"],
               "b80b35444095f03f770fa739ec9bec0a51ec7e7888542948f11c8a88ac4588a0"),
    "transversal": (["transversal", "--seed", "5", "--n", "12"],
                    "d8b95ba8ec07c300aa8bf2bfdc06115e1ab64ee0365ce00e6d4305c81c35709a"),
    "maxdual": (["maxdual", "--seed", "7", "--n", "12"],
                "ca45fad9eda81a55baebc8ea336f84523de49685862fc0f90ef67e5aa218e0d7"),
    "maxdual-tangent": (["maxdual", "--seed", "7", "--n", "12", "--tangent"],
                        "a8816fdb5cdb301a5d49b7468a4e50a69eb15fe7da46720db9dacc060c442ff9"),
    "extremal": (["extremal", "12"],
                 "a9e4f1ec697fbcedad910bc61b10242c546b1db7a92e456a932fde98b92b4744"),
    "sweep": (["sweep", "--seed", "3", "--n", "8", "--samples", "9", "--tau", "1/5"],
              "45ed102060095c0f8df8406ef76a846919d947f7c3672c8e8aaf62ec117f490f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUT))
def test_canonical_out_is_pinned(name, tmp_path):
    argv, digest = PINNED_OUT[name]
    out = tmp_path / "out.json"
    assert run_command(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of maxdepth --out on a near-convex set read with --in: its points'
# denominators differ, which the box sets above (all over 9973) never have
PINNED_MIXED_DENOMINATORS = \
    "5823c48c956eccc8d432970d8164844ad4687450ddb4afc75d3805ad4a363c30"


@pytest.mark.parametrize("runs", ["1", "2"])
def test_mixed_denominator_out_is_pinned(runs, tmp_path):
    # a second run in the same process writes the same bytes: nothing the
    # first run leaves behind changes the answer
    data = tmp_path / "near_convex.json"
    pset = random_point_set(14, 14, near_convex=True)
    data.write_text(emit_dataset(Dataset("POINTS", points=pset)))
    for run in range(int(runs)):
        out = tmp_path / f"out{run}.json"
        assert run_command(["maxdepth", "--in", str(data),
                            "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            PINNED_MIXED_DENOMINATORS


# sha256 of maxdepth --out on sets whose crossings share float keys: on
# segment 0-1 of FLOAT_CLASH six distinct crossings round to one float, and
# SHARED_FLOAT (tests/test_selection.py) adds two points whose segment meets
# one of them, so a float there holds a concurrency among distinct crossings
_FLOAT_CLASH_POINTS = ('["0","0"],["3458764513820540928","1"],["1152921504606846976","-1"],'
                       '["1152921504606846976","1"],["1152921504606846977","-2"],'
                       '["1152921504606846977","3"],["1152921504606846978","-1"]')
PINNED_SHARED_FLOATS = {
    "float_clash": (_FLOAT_CLASH_POINTS,
                    "8008fc91ea322b766ffb1b3cca4f8f3617a85cfc24b9f7be64e32a5a91a9aa0f"),
    "shared_float": (_FLOAT_CLASH_POINTS + ',["576460752303423495","5"],'
                     '["23926103924128485622917110478015561735/13835058055282163711",'
                     '"-59951918239556042745/13835058055282163711"]',
                     "8d2cf49106d0a1935a06dc5317a6d773f1fe900737534aba67f79c7e328c9b70"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SHARED_FLOATS))
def test_shared_float_out_is_pinned(name, tmp_path):
    points, digest = PINNED_SHARED_FLOATS[name]
    data = tmp_path / "in.json"
    data.write_text(f'{{"kind":"POINTS","points":[{points}]}}')
    out = tmp_path / "out.json"
    assert run_command(["maxdepth", "--in", str(data), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of maxdual --out on the line families of tests/test_dual.py whose
# vertex parameters share a float (SHARED_FLOAT_LINES) or overflow one
# (OVERFLOW_LINES), so that some lines sort their vertices by exact keys
_LINE = '{{"normal":["{}","{}"],"offset":"{}"}}'
PINNED_EXACT_LINE_ORDERS = {
    "shared_float_lines": (
        [(0, 1, 0), (1, 0, 10 ** 20), (1, 1, 10 ** 20 + 1), (1, -2, 3), (2, 1, -5), (1, 3, 7)],
        "b07cfcbe1ab0c376cc86556c7dc6e97e27ed337961e1dbaef4727f65ba23e846"),
    "overflow_lines": (
        [(10 ** 400, 1, 0), (1, 1, 2), (2, -1, -1), (1, -3, 4)],
        "b8fe15f43bb5b12fce35f67ee4ce04f313ccab1a4e5cd5204b6a346195f8f34a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXACT_LINE_ORDERS))
def test_exact_line_order_out_is_pinned(name, tmp_path):
    lines, digest = PINNED_EXACT_LINE_ORDERS[name]
    data = tmp_path / "in.json"
    data.write_text('{"kind":"LINES","lines":[%s]}' % ",".join(_LINE.format(*c) for c in lines))
    out = tmp_path / "out.json"
    assert run_command(["maxdual", "--in", str(data), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the --plot SVG at --grid 40 for fixed-seed runs; every landscape
# cell count, band colour and formatted coordinate shows here
PINNED_PLOT = {
    "depth": "c679ca2f350adc54dc156066c9dab3ccb41c65179a14ce26dadf3d46bcc1e5e1",
    "maxdepth": "eab44964e23abe3c26845d42bd82eed1a9a4baebf982d004a74a84b4b074dc29",
    "dual": "42388800c190e8045a9ebd069ffef99fdeaacc867dbc6108b733e432acb3be04",
    "maxdual": "f6a3f6620cb7b78824b0c8e8004758aeccdc1f5c662d76f10ced86bc10bd009b",
}


@pytest.mark.parametrize("name", sorted(PINNED_PLOT))
def test_plot_svg_is_pinned(name, tmp_path):
    argv, _ = PINNED_OUT[name]
    plot = tmp_path / "plot.svg"
    assert run_command(argv + ["--plot", str(plot), "--grid", "40"]) == 0
    assert hashlib.sha256(plot.read_bytes()).hexdigest() == PINNED_PLOT[name]


# sha256 of transversal --out on a near-convex two-class set read with --in:
# the median sweep projects points whose denominators all differ
PINNED_TRANSVERSAL_MIXED_DENOMINATORS = \
    "86604df35581b03e88330cfb83e475bba3aef48bb42b3af7f679317645700cfc"


def test_transversal_mixed_denominator_out_is_pinned(tmp_path):
    data = tmp_path / "near_convex.json"
    base = random_point_set(16, 15, near_convex=True)
    pset = LabeledPointSet(base.points, colors=tuple(i % 2 for i in range(16)))
    data.write_text(emit_dataset(Dataset("COLORED_POINTS", points=pset)))
    out = tmp_path / "out.json"
    assert run_command(["transversal", "--in", str(data), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        PINNED_TRANSVERSAL_MIXED_DENOMINATORS
