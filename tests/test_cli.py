"""End-to-end command line behavior, run in process through main()."""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import pathlib
import subprocess
import sys

from rmfchi import census, cli, strata
from rmfchi.cli import main
from rmfchi.decograph import DecoratedGraph, GammaMode, check_nonsep
from rmfchi.enumerator import enum_nonsep
from rmfchi.oracle import enum_nonsep_naive
from rmfchi.topotype import nonsep, parse_type

GOLDEN = pathlib.Path(__file__).parent / "golden" / "catalog_g1_n3_i2.jsonl"
GRAPHS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "graphs.jsonl"
LARGER_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                 / "catalog_g3_n6_i3.jsonl")
SEP_GRAPHS_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                     / "graphs_sep.jsonl")
HIGH_GENUS_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                     / "catalog_g20_n3_i3.jsonl")
VERIFY_CELLS_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                       / "verify_cells.txt")


def test_validate(capsys):
    assert main(["validate", "1,3,0|1"]) == 0
    assert capsys.readouterr().out == "type=1,3,0|1 exists=true dim=6\n"

    assert main(["validate", "1,3,1|-1,-2"]) == 0
    out = capsys.readouterr().out
    assert out == "type=1,3,1|1,2 exists=true dim=6\n"

    assert main(["validate", "0,3,0|3"]) == 1
    err = capsys.readouterr().err
    assert "exists=false" in err and "sum(i)<=n-2" in err


def test_validate_json(capsys):
    assert main(["validate", "--json", "0,3,0|3"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"type": "0,3,0|3", "exists": False,
                    "violated": ["k<=g", "sum(i)<=n-2"], "dim": None}


def test_dim(capsys):
    assert main(["dim", "1,3,0|1"]) == 0
    assert capsys.readouterr().out == "6\n"
    assert main(["dim", "--json", "3,4,1|-1,1;0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"type": "3,4,1|-1,1;0",
                                                   "dim": 12}
    assert main(["dim", "0,3,0|3"]) == 1


def test_chi_h(capsys):
    assert main(["chi-h", "0,2,1|2"]) == 0
    assert capsys.readouterr().out == "value=1 route=COMPONENT_G0\n"
    assert main(["chi-h", "1,3,0|1"]) == 0
    assert capsys.readouterr().out == "value=0 route=COMPONENT_ZERO\n"


def test_chi_n_routes(capsys):
    assert main(["chi-n", "0,2,1|2"]) == 0
    assert capsys.readouterr().out == "value=1 route=SEP_FULL_DEGREE\n"

    assert main(["chi-n", "--no-shortcircuit", "0,2,1|2"]) == 0
    assert capsys.readouterr().out \
        == "value=1 route=GRAPH_COUNT_SEP graphs=1\n"

    assert main(["chi-n", "0,4,0|"]) == 0
    assert capsys.readouterr().out \
        == "value=2 route=GRAPH_COUNT_NONSEP graphs=2\n"

    assert main(["chi-n", "1,2,1|0,0"]) == 0
    assert capsys.readouterr().out == "value=0 route=ZERO_INDEX\n"

    assert main(["chi-n", "3,4,1|-1,1;0"]) == 0
    assert capsys.readouterr().out == "value=1 route=EXT_ONE\n"

    # the reported type is the normal form
    assert main(["chi-n", "--json", "3,6,1|1,-1"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "type": "3,6,1|-1,1", "value": 9, "route": "GRAPH_COUNT_SEP",
        "graph_count": 9}


def test_chi_n_requires_xi_when_extension_applies(capsys):
    assert main(["chi-n", "3,4,1|-1,1"]) == 1
    assert "append ;<xi>" in capsys.readouterr().err


def test_graphs_json_round_trip(capsys):
    assert main(["graphs", "1,3,0|1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type"] == "1,3,0|1" and data["count"] == 1
    assert "count_existence" not in data
    t = nonsep(1, 3, (1,))
    for item in data["graphs"]:
        g = DecoratedGraph.from_json_dict(item)
        assert check_nonsep(g, t).ok
    vs = data["graphs"][0]["vertices"]
    assert {frozenset(v) for v in vs} \
        == {frozenset(("id", "color", "weight", "root"))}


def test_graphs_flags(capsys):
    assert main(["graphs", "--gamma-any-order", "1,4,0|"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 3
    assert main(["graphs", "--gamma-existence", "1,4,0|"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    assert main(["graphs", "--naive", "0,4,0|"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_graphs_existence_is_each_routes_own(capsys):
    # --gamma-existence lists what each route's own EXISTENCE census
    # keeps, in its order: the fast one the graph with the smallest key
    # per underlying graph, the oracle the first gamma it admits.
    # On 1,6,0| with gammas of any order the two routes keep different
    # gammas.
    for text in ("0,4,0|", "1,4,0|", "2,5,0|1", "1,5,0|1", "1,6,0|"):
        t = parse_type(text)
        for any_order in (False, True):
            for flag, enum in ((None, enum_nonsep),
                               ("--naive", enum_nonsep_naive)):
                args = [flag, "--gamma-any-order" if any_order else None]
                assert main(["graphs", "--gamma-existence"]
                            + [a for a in args if a] + [text]) == 0
                want = enum(t, gamma_mode=GammaMode.EXISTENCE,
                            involution=not any_order)
                assert json.loads(capsys.readouterr().out)["graphs"] \
                    == [g.to_json_dict() for g in want]


def test_graphs_match_golden(capsys):
    # output order and the gamma standing for each class, line by line
    runs = [[flag, t] for t in ("1,4,0|", "2,5,0|1", "3,7,0|1")
            for flag in (None, "--gamma-existence", "--gamma-any-order")]
    runs.append([None, "3,6,1|-1,1"])
    out = []
    for args in runs:
        assert main(["graphs"] + [a for a in args if a]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == GRAPHS_GOLDEN.read_text()


def test_sep_graphs_match_golden(capsys):
    # the separating representatives and their order, byte for byte
    out = []
    for t in ("2,7,1|1", "3,8,1|-1,1", "3,8,1|1,1", "4,8,1|-1,1,2"):
        assert main(["graphs", t]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out).encode() == SEP_GRAPHS_GOLDEN.read_bytes()


def test_graphs_dot(capsys):
    assert main(["graphs", "--format", "dot", "0,4,0|"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("// type=0,4,0|\n// count=2\n")
    assert "graph g0 {" in out and "graph g1 {" in out


def test_graphs_domain_errors(capsys):
    assert main(["graphs", "0,2,1|2"]) == 1
    assert "--no-shortcircuit" in capsys.readouterr().err
    assert main(["graphs", "--no-shortcircuit", "0,2,1|2"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert main(["graphs", "1,2,1|0,0"]) == 1
    assert main(["graphs", "3,4,1|-1,1;0"]) == 1
    assert "no graph model" in capsys.readouterr().err


def test_strata_output(capsys):
    assert main(["strata", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "P=[] Q=[1] dim=2",
        "P=[2] Q=[] dim=1",
        "P=[1,1] Q=[] dim=2",
    ]
    assert main(["strata", "--json", "1"]) == 0
    assert json.loads(capsys.readouterr().out) \
        == {"P": [1], "Q": [], "dim": 1}


def test_verify_cells(capsys):
    assert main(["verify-cells", "--max-s", "6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "cover table r,s<=6 ok"
    # the largest input the cap admits still verifies
    assert main(["verify-cells", "--max-s", str(strata.MAX_CHAIN)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] \
        == f"cover table r,s<={strata.MAX_CHAIN} ok"
    assert main(["verify-cells", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True and data["cover_ok"] is True


def _verify_cells_transcript() -> str:
    """Stdout and exit code of ``verify-cells`` for every admitted bound.

    Both formats, ``--max-s`` 0 to ``strata.MAX_CHAIN``; this is how
    ``tests/golden/verify_cells.txt`` was written.
    """
    out = io.StringIO()
    for max_s in range(strata.MAX_CHAIN + 1):
        for extra in ([], ["--json"]):
            argv = ["verify-cells", "--max-s", str(max_s), *extra]
            out.write(f"$ rmfchi {' '.join(argv)}\n")
            with contextlib.redirect_stdout(out):
                code = main(argv)
            out.write(f"exit={code}\n")
    return out.getvalue()


def test_verify_cells_matches_golden():
    assert _verify_cells_transcript() == VERIFY_CELLS_GOLDEN.read_text()


def test_verify_cells_builds_each_complex_once(capsys, monkeypatch):
    built = []

    def counted(name):
        original = getattr(strata, name)

        def build(param):
            built.append((name, param))
            return original(param)
        return build

    for name in ("cells_real", "cells_lambda"):
        monkeypatch.setattr(strata, name, counted(name))
    assert main(["verify-cells", "--max-s", "6"]) == 0
    capsys.readouterr()
    assert sorted(built) == sorted([("cells_real", k) for k in range(7)]
                                   + [("cells_lambda", s)
                                      for s in range(1, 7)])


def test_exponential_inputs_are_capped(capsys):
    # Both outputs grow exponentially: past their caps the commands
    # stop with a named error instead of recursing or running away.
    assert main(["strata", str(strata.MAX_DEGREE)]) == 0
    capsys.readouterr()
    assert main(["strata", "100000"]) == 1
    assert capsys.readouterr().err \
        == f"error: m must satisfy 0 <= m <= {strata.MAX_DEGREE}\n"
    message = (f"error: --max-s must satisfy 0 <= --max-s <= "
               f"{strata.MAX_CHAIN}\n")
    assert main(["verify-cells", "--max-s", "40"]) == 1
    assert capsys.readouterr().err == message
    # a negative bound would check nothing and still report success
    assert main(["verify-cells", "--max-s", "-1"]) == 1
    assert capsys.readouterr() == ("", message)


def test_catalog_matches_golden(tmp_path, capsys):
    out = tmp_path / "cat.jsonl"
    assert main(["catalog", "--g-max", "1", "--n-max", "3",
                 "--abs-i-max", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"records=12 path={out}\n"
    assert out.read_text() == GOLDEN.read_text()

    two = tmp_path / "cat2.jsonl"
    assert main(["catalog", "--g-max", "1", "--n-max", "3",
                 "--abs-i-max", "2", "--workers", "2",
                 "--out", str(two), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) \
        == {"records": 12, "path": str(two)}
    assert two.read_text() == GOLDEN.read_text()


def test_larger_catalog_matches_golden(tmp_path, capsys):
    out = tmp_path / "cat.jsonl"
    assert main(["catalog", "--g-max", "3", "--n-max", "6",
                 "--abs-i-max", "3", "--workers", "2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"records=205 path={out}\n"
    assert out.read_bytes() == LARGER_GOLDEN.read_bytes()


def test_high_genus_catalog_matches_golden(tmp_path):
    # Up to g + 1 indices per type: listing the candidates must stay
    # polynomial in g, or this box takes minutes instead of a second.
    # No index of an existing type exceeds n, so a looser |i| bound
    # gives the same box; listing every value up to it once overflowed
    # the stack (one recursion per value) at --abs-i-max 1000.
    out = tmp_path / "cat.jsonl"
    for abs_i_max in ("3", "1000"):
        proc = subprocess.run(
            [sys.executable, "-m", "rmfchi", "catalog", "--g-max", "20",
             "--n-max", "3", "--abs-i-max", abs_i_max, "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"records=636 path={out}\n"
        assert out.read_bytes() == HIGH_GENUS_GOLDEN.read_bytes()


def test_catalog_unwritable_out_fails_before_the_sweep(tmp_path, capsys,
                                                       monkeypatch):
    # Calling sweep only checks its arguments; records are computed when
    # they are asked for, and none may be before the output is opened.
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output was opened")
        yield

    monkeypatch.setattr(census, "sweep", no_sweep)
    out = tmp_path / "missing" / "x.jsonl"
    assert main(["catalog", "--g-max", "1", "--n-max", "3",
                 "--abs-i-max", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}")
    assert "Traceback" not in err
    assert main(["catalog", "--g-max", "1", "--n-max", "3",
                 "--abs-i-max", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {tmp_path}")


def test_catalog_names_a_write_failure(tmp_path, capsys, monkeypatch):
    # A full disk fails a write, or only the close that flushes the
    # buffer; either way the user gets the path and the reason.
    class FullDisk(io.StringIO):
        def __init__(self, fail_on):
            super().__init__()
            self.fail_on = fail_on

        def write(self, text):
            if self.fail_on == "write":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(text)

        def close(self):
            if self.fail_on == "close":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            super().close()

    out = tmp_path / "x.jsonl"
    for fail_on in ("write", "close"):
        stream = FullDisk(fail_on)
        monkeypatch.setattr(cli, "open", lambda *a, **k: stream,
                            raising=False)
        assert main(["catalog", "--g-max", "1", "--n-max", "3",
                     "--abs-i-max", "2", "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")


def test_catalog_rejects_workers_below_one(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    for workers in ("0", "-3"):
        assert main(["catalog", "--g-max", "1", "--n-max", "3",
                     "--abs-i-max", "2", "--workers", workers,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: workers must be an integer >= 1\n")
        assert not out.exists()


def test_catalog_csv(tmp_path, capsys):
    out = tmp_path / "cat.csv"
    assert main(["catalog", "--g-max", "0", "--n-max", "2",
                 "--abs-i-max", "2", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("type,exists,dim,")
    assert len(lines) >= 3


def test_exit_codes(capsys, monkeypatch):
    assert main(["validate", "1,3"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["validate", "1,3,0|1,"]) == 1
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("RMF_WORK_LIMIT", "10")
    assert main(["chi-n", "2,5,0|1"]) == 3
    assert "work limit 10 exceeded" in capsys.readouterr().err


def test_bad_work_limit_names_the_variable(capsys, monkeypatch):
    # 0,2,1|2 has a closed form; the limit is read all the same.
    for text in ("lots", "0", "-5"):
        monkeypatch.setenv("RMF_WORK_LIMIT", text)
        for t in ("2,5,0|1", "0,2,1|2"):
            assert main(["chi-n", t]) == 1
            err = capsys.readouterr().err
            assert "RMF_WORK_LIMIT" in err and repr(text) in err


def test_sequential_commands_do_not_load_the_pool(tmp_path):
    # Importing the pool machinery costs every command about 2 MiB and
    # 15 ms; only a sweep that starts a pool may load it, and only
    # --format csv the csv module.
    code = """
import contextlib, io, sys
import rmfchi
from rmfchi import cli
box = ["--g-max", "1", "--n-max", "3", "--abs-i-max", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["chi-n", "3,7,0|1"], ["graphs", "1,3,0|1"],
        ["verify-cells", "--max-s", "3"],
        ["catalog", *box, "--out", sys.argv[1] + ".jsonl"])]
print(codes, [name for name in ("concurrent.futures", "multiprocessing", "csv")
              if name in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["catalog", *box, "--format", "csv",
                     "--out", sys.argv[1] + ".csv"])
print(code, "csv" in sys.modules)
"""
    out = tmp_path / "catalog"
    proc = subprocess.run([sys.executable, "-c", code, str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0] []", "0 True"]
    assert (tmp_path / "catalog.jsonl").read_text() == GOLDEN.read_text()
    assert (tmp_path / "catalog.csv").read_text().count("\n") == 13


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "rmfchi", "dim", "1,3,0|1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "6\n"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main parses with the module's one parser: a usage error, --help
    # and a rejected choice leave it as it was, so the same query run
    # twice after them prints what a fresh process prints.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["chi-n"]) == 2
    assert "usage: rmfchi chi-n" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: rmfchi")
    assert main(["graphs", "1,3,0|1", "--format", "xml"]) == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    query = ["chi-n", "--json", "2,5,0|1"]
    outs = []
    for _ in range(2):
        assert main(query) == 0
        outs.append(capsys.readouterr().out)
    assert built == []
    cli.build_parser()
    assert built  # the counter sees a parser being built

    proc = subprocess.run([sys.executable, "-m", "rmfchi", *query],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert outs == [proc.stdout] * 2
