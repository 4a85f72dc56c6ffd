"""Command-line interface: exit codes, output files, report wiring."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pweno import cli
from pweno.cli import main

CSV_HEADER = "level,region,error,order,method,r,grid,seed"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_linear_data(tmp_path, J=16):
    nodes = np.linspace(0.0, 1.0, J + 1)
    data = {"axes": [nodes.tolist()], "values": (2.0 * nodes + 1.0).tolist()}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def write_spiky_data(tmp_path, J=16):
    # alternating huge values overflow the smoothness integrals -> fallback
    nodes = np.linspace(0.0, 1.0, J + 1)
    values = [1e160 * (-1.0) ** k for k in range(J + 1)]
    data = {"axes": [nodes.tolist()], "values": values}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def write_query(tmp_path, points):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(points), encoding="utf-8")
    return path


class TestBench1D:
    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["bench1d", "--function", "f1", "--levels", "5..6",
                     "--eval-points", "900", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 9
        assert lines[1].endswith(",progressive,3,uniform,0")

    def test_csv_to_stdout(self, capsys):
        code = main(["bench1d", "--function", "f1", "--levels", "5..5",
                     "--eval-points", "900"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 9

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bench1d", "--function", "f2", "--method", "classical",
                     "--r", "2", "--levels", "5..6", "--eval-points", "900",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["method"] == "classical"
        assert obj["r"] == 2
        assert len(obj["rows"]) == 2 * 9

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["bench1d", "--function", "f1", "--grid", "random", "--seed", "14",
                "--levels", "5..6", "--eval-points", "900"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_function_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench1d", "--function", "f9", "--levels", "5..6"])
        assert exc.value.code == 2

    def test_bad_level_syntax_exits_2(self, capsys):
        assert main(["bench1d", "--function", "f1", "--levels", "abc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_level_range_exits_2(self, capsys):
        assert main(["bench1d", "--function", "f1", "--levels", "7..6"]) == 2
        capsys.readouterr()

    def test_memory_error_exits_2(self, capsys):
        # numpy refuses the 7.11 PiB point array before allocating any of it
        assert main(["bench1d", "--function", "f1", "--levels", "5..5",
                     "--eval-points", str(10**15)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_window_violation_exits_2(self, capsys):
        assert main(["bench1d", "--function", "f1", "--r", "4",
                     "--levels", "3..5", "--eval-points", "900"]) == 2
        capsys.readouterr()
        assert main(["bench1d", "--function", "f1", "--levels", "2..3"]) == 2
        assert capsys.readouterr().err == "error: stencil windows leave the domain at level 2\n"


class TestBench2D:
    def test_region_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["bench2d", "--function", "f4", "--r", "2",
                     "--levels", "5..5", "--eval-points", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 11 * 9

    def test_smooth_global_rows(self, capsys):
        code = main(["bench2d", "--function", "f3", "--r", "2",
                     "--levels", "4..5", "--eval-points", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["global", "global"]

    def test_bad_eval_points_exits_2(self, capsys):
        assert main(["bench2d", "--function", "f3", "--levels", "4..4",
                     "--eval-points", "2"]) == 2
        capsys.readouterr()


class TestInterp:
    def test_values_json(self, tmp_path):
        data = write_linear_data(tmp_path)
        query = write_query(tmp_path, [0.31, 0.5, 0.69])
        out = tmp_path / "vals.json"
        code = main(["interp", "--data", str(data), "--query", str(query),
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert [entry["point"] for entry in obj] == [[0.31], [0.5], [0.69]]
        for entry in obj:
            assert entry["value"] == pytest.approx(2.0 * entry["point"][0] + 1.0,
                                                   abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_query_list(self, tmp_path, capsys, n):
        nodes = np.linspace(0.0, 1.0, 9).tolist()
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"axes": [nodes] * n, "values": np.ones((9,) * n).tolist()}),
                        encoding="utf-8")
        query = write_query(tmp_path, [])
        assert main(["interp", "--data", str(data), "--query", str(query)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_strict_flags_fallback(self, tmp_path, capsys):
        data = write_spiky_data(tmp_path)
        query = write_query(tmp_path, [0.5])
        code = main(["interp", "--data", str(data), "--query", str(query),
                     "--strict", "--out", str(tmp_path / "vals.json")])
        assert code == 3
        assert "fallback" in capsys.readouterr().err

    def test_fallback_without_strict_is_ok(self, tmp_path, capsys):
        data = write_spiky_data(tmp_path)
        query = write_query(tmp_path, [0.5])
        code = main(["interp", "--data", str(data), "--query", str(query)])
        assert code == 0
        capsys.readouterr()

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        query = write_query(tmp_path, [0.5])
        assert main(["interp", "--data", str(tmp_path / "none.json"),
                     "--query", str(query)]) == 2
        capsys.readouterr()

    def test_eps_overflow_exits_2(self, tmp_path, capsys):
        # h^2 overflows on a grid spanning [0, 1e202]: a message, not a traceback
        nodes = np.linspace(0.0, 1e202, 17)
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"axes": [nodes.tolist()],
                                    "values": np.sin(np.arange(17.0)).tolist()}),
                        encoding="utf-8")
        query = write_query(tmp_path, [0.5e202])
        assert main(["interp", "--data", str(data), "--query", str(query)]) == 2
        assert "mesh width" in capsys.readouterr().err

    @pytest.mark.parametrize("data, query", [
        (5, [0.5]),
        ("axes", [0.5]),
        ({"axes": 5, "values": [1.0, 2.0]}, [0.5]),
        ({"axes": None}, [0.5]),
        ({"axes": [["a", "b"]], "values": [1.0, 2.0]}, [0.5]),
        ({"axes": [[0.0, 1.0]], "values": {"v": 1}}, [0.5]),
        (None, {"a": 0.5}),
        (None, [{"a": 1}]),
    ], ids=["data-number", "data-string", "axes-number", "axes-null", "axes-strings",
            "values-object", "query-object", "query-objects"])
    def test_malformed_json_exits_2(self, tmp_path, capsys, data, query):
        # wrong structure is a named error, never a traceback
        if data is None:
            data_path = write_linear_data(tmp_path)
        else:
            data_path = tmp_path / "bad.json"
            data_path.write_text(json.dumps(data), encoding="utf-8")
        query_path = write_query(tmp_path, query)
        assert main(["interp", "--data", str(data_path), "--query", str(query_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("axis", [[0, 0.25, 0.5, 0.75, 1, 2, 3, "Infinity"],
                                      ["-Infinity", 0.25, 0.5, 0.75, 1, 2, 3, 4]])
    def test_infinite_node_exits_2(self, tmp_path, capsys, axis):
        # JSON's Infinity reads as a float; the grid refuses it by name
        data = tmp_path / "data.json"
        data.write_text('{"axes": [[%s]], "values": [0, 1, 2, 3, 4, 5, 6, 7]}'
                        % ", ".join(map(str, axis)), encoding="utf-8")
        query = write_query(tmp_path, [0.6])
        assert main(["interp", "--data", str(data), "--query", str(query)]) == 2
        assert capsys.readouterr().err == "error: nodes must all be finite\n"

    def test_2d_node_array_is_named(self, tmp_path, capsys):
        data = tmp_path / "bad.json"
        data.write_text(json.dumps({"axes": [[[0, 1]]], "values": [1.0, 2.0]}),
                        encoding="utf-8")
        query = write_query(tmp_path, [0.5])
        assert main(["interp", "--data", str(data), "--query", str(query)]) == 2
        assert capsys.readouterr().err == "error: nodes must be a 1-D array, got shape (1, 2)\n"

    @pytest.mark.parametrize("field", ["query", "axes", "values"])
    def test_numeric_strings_exit_2(self, tmp_path, capsys, field):
        # JSON of the wrong structure: numbers given as strings are refused,
        # not parsed
        nodes = np.linspace(0.0, 1.0, 9)
        data = {"axes": [nodes.tolist()] * 2, "values": np.ones((9, 9)).tolist()}
        points = [[0.5, 0.5]]
        if field == "query":
            points = [["0.5", "0.5"]]
        else:
            data[field] = np.array(data[field]).astype(str).tolist()
        path = tmp_path / "data.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        query = write_query(tmp_path, points)
        assert main(["interp", "--data", str(path), "--query", str(query)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not strings" in err

    def test_out_of_window_query_exits_2(self, tmp_path, capsys):
        data = write_linear_data(tmp_path)
        query = write_query(tmp_path, [0.01])
        assert main(["interp", "--data", str(data), "--query", str(query)]) == 2
        capsys.readouterr()


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pweno.cli", "bench1d", "--function", "f1",
         "--levels", "5..5", "--eval-points", "900", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)


def test_main_builds_one_parser(monkeypatch, capsys):
    # main parses with one parser per process and gives the reports of a
    # freshly built one; build_parser itself still builds a new parser
    real, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(real()) or built[-1])
    cli._parser.cache_clear()
    argvs = [["bench1d", "--function", "f1", "--levels", "5..5", "--eval-points", "900"],
             ["bench2d", "--function", "f4", "--levels", "4..4", "--eval-points", "1"]] * 2
    outs = []
    for argv in argvs:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert len(built) == 1 and outs[:2] == outs[2:]
    for argv, out in zip(argvs[:2], outs):
        args = real().parse_args(argv)
        assert args.func(args) == 0
        assert capsys.readouterr().out == out
    assert real() is not real()


def test_bench_has_no_t_flag(capsys):
    # the weight exponent t stays a library parameter (WenoParams.t)
    with pytest.raises(SystemExit) as exc:
        main(["bench1d", "--function", "f1", "--t", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t 2" in capsys.readouterr().err
