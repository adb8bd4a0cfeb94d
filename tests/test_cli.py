"""Command-line interface: subcommands, file outputs, exit codes."""

import json
import shutil
import subprocess

import pytest

import rank3
from rank3 import cli

from reference_values import PER_R_COUNTS, R_TABLE


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestGenerate:
    def test_writes_stratum_files_and_manifest(self, tmp_path, capsys):
        assert run_cli("generate", "--coatoms", 4, "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "total 16" in out
        for r, n in enumerate(PER_R_COUNTS[4]):
            path = tmp_path / rank3.graph_file_name(4, r)
            assert path.exists()
            lines = [ln for ln in path.read_bytes().splitlines() if ln]
            assert len(lines) == n
        assert (tmp_path / "conn_c4.manifest").exists()

    @pytest.mark.parametrize("coatoms", range(1, 6))
    def test_stdout_is_manifest(self, tmp_path, capsys, coatoms):
        assert run_cli("generate", "--coatoms", coatoms, "--out", tmp_path) == 0
        manifest = tmp_path / ("conn_c%d.manifest" % coatoms)
        assert capsys.readouterr().out.encode() == manifest.read_bytes()

    def test_default_directory_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RANK3_OUT", str(tmp_path))
        assert run_cli("generate", "--coatoms", 3) == 0
        assert (tmp_path / "conn_c3_r0.g6").exists()

    def test_single_coatom_writes_one_empty_graph(self, tmp_path, capsys):
        assert run_cli("generate", "--coatoms", 1, "--out", tmp_path) == 0
        files = sorted(p.name for p in tmp_path.glob("*.g6"))
        assert files == ["conn_c1_r0.g6"]
        lines = (tmp_path / files[0]).read_bytes().splitlines()
        assert lines == [rank3.graph6_encode(rank3.BicoloredGraph(1, [])).rstrip(b"\n")]

    @pytest.mark.parametrize("coatoms", [0, -2])
    def test_nonpositive_coatoms_write_nothing(self, tmp_path, capsys, coatoms):
        out = tmp_path / "graphs"
        assert run_cli("generate", "--coatoms", coatoms, "--out", out) == cli.EXIT_INPUT
        assert "error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestCount:
    def test_csv_matches_published_values(self, tmp_path, capsys):
        out = tmp_path / "c3.csv"
        assert run_cli("count", "--coatoms", 3, "--max-atoms", 10,
                       "--out", out) == 0
        table = rank3.read_csv(out, 3)
        assert table.values == [0, 1, 3, 8, 13, 20, 29, 39, 50, 64, 78]
        assert "graphs=5" in capsys.readouterr().out

    def test_reads_pregenerated_graphs(self, tmp_path, capsys):
        run_cli("generate", "--coatoms", 4, "--out", tmp_path)
        capsys.readouterr()
        out, generated = tmp_path / "c4.csv", tmp_path / "c4gen.csv"
        assert run_cli("count", "--coatoms", 4, "--max-atoms", 8,
                       "--graphs", tmp_path, "--out", out) == 0
        table = rank3.read_csv(out, 4)
        assert table.values[1:] == [R_TABLE[4][a] for a in range(1, 9)]
        # the fold's MemoStats (MEMO_STATS[4]), the one result of the graphs
        # besides their cell gate, and the bytes of the count without them
        assert capsys.readouterr().out.splitlines()[-1] == "graphs=16 cycle_indices=6 trivial=0"
        assert run_cli("count", "--coatoms", 4, "--max-atoms", 8, "--out", generated) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "graphs=16"
        assert out.read_bytes() == generated.read_bytes()

    def test_missing_graph_directory(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = run_cli("count", "--coatoms", 3, "--max-atoms", 5,
                       "--graphs", empty, "--out", tmp_path / "x.csv")
        assert code == cli.EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_graph_directory_checked_before_the_count(self, tmp_path, capsys, monkeypatch):
        # a count at c = 10 takes seconds; the missing directory is named first,
        # so no entry for 10 is made
        monkeypatch.delitem(rank3.pipeline._generated, 10, raising=False)
        out = tmp_path / "c10.csv"
        code = run_cli("count", "--coatoms", 10, "--max-atoms", 10,
                       "--graphs", tmp_path / "missing", "--out", out)
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: no manifest ")
        assert 10 not in rank3.pipeline._generated
        assert not out.exists()

    @pytest.mark.parametrize("coatoms, max_atoms, text", [
        (0, 5, "coatom count must be positive"),
        (3, -1, "maximum atom count must be nonnegative"),
    ])
    def test_bad_arguments_named_before_the_graphs(self, tmp_path, capsys,
                                                   coatoms, max_atoms, text):
        code = run_cli("count", "--coatoms", coatoms, "--max-atoms", max_atoms,
                       "--graphs", tmp_path / "missing", "--out", tmp_path / "x.csv")
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: %s\n" % text


def _drop_last_line(directory):
    path = directory / "conn_c5_r4.g6"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))


def _repeat_first_line(directory):
    path = directory / "conn_c5_r4.g6"
    path.write_bytes(path.read_bytes().splitlines(keepends=True)[0] + path.read_bytes())


def _remove_manifest(directory):
    (directory / "conn_c5.manifest").unlink()


def _one_coatom_connector(directory):
    # same line count, but line 1 has a connector covering a single coatom
    path = directory / "conn_c5_r1.g6"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = rank3.graph6_encode(rank3.BicoloredGraph(5, [{0}]))
    path.write_bytes(b"".join(lines))
    return "covers fewer than two coatoms"


def _shared_pair(directory):
    # same line count, but line 1's two connectors share coatoms 0 and 1
    path = directory / "conn_c5_r2.g6"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = rank3.graph6_encode(rank3.BicoloredGraph(5, [{0, 1, 2}, {0, 1, 3}]))
    path.write_bytes(b"".join(lines))
    return "share more than one coatom"


def _relabelled_copy(directory):
    # same line count, but line 2 is line 1 with its coatoms rotated
    path = directory / "conn_c5_r4.g6"
    lines = path.read_bytes().splitlines(keepends=True)
    first = rank3.graph6_decode(lines[0], 5, 4)
    lines[1] = rank3.graph6_encode(rank3.BicoloredGraph(
        5, [{(i + 1) % 5 for i in nb} for nb in first.neighborhoods()]))
    assert lines[1] != lines[0]
    path.write_bytes(b"".join(lines))
    return "isomorphic"


def _corrupt_line(directory):
    # line 3 loses its last payload byte
    path = directory / "conn_c5_r4.g6"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:-2] + b"\n"
    path.write_bytes(b"".join(lines))
    return "conn_c5_r4.g6 line 3"


def _wrong_total(directory):
    path = directory / "conn_c5.manifest"
    *strata, _total = path.read_text().splitlines()
    path.write_text("\n".join(strata + ["total 99"]) + "\n")
    return "total 99"


def _extra_stratum(directory):
    path = directory / "conn_c5.manifest"
    path.write_text(path.read_text().replace("total", "conn_c5_r11.g6 0\ntotal"))
    return "strata"


def _emptied_end_stratum(directory):
    # r0 and its manifest line both emptied, the total lowered to match
    (directory / "conn_c5_r0.g6").write_bytes(b"")
    path = directory / "conn_c5.manifest"
    path.write_text(path.read_text().replace("conn_c5_r0.g6 1\n", "conn_c5_r0.g6 0\n")
                    .replace("total 72\n", "total 71\n"))
    return "0 graphs in conn_c5_r0.g6"


def _truncated_interior_stratum(directory):
    # the last line of r4 dropped, its manifest line and the total lowered to
    # match: every check of the reader passes, and only the cell gate
    # sees the missing class
    _drop_last_line(directory)
    path = directory / "conn_c5.manifest"
    listed = dict(line.split() for line in path.read_text().splitlines())
    listed["conn_c5_r4.g6"] = str(int(listed["conn_c5_r4.g6"]) - 1)
    listed["total"] = "71"
    path.write_text("".join("%s %s\n" % item for item in listed.items()))
    return "labelled families with 4 connectors"


class TestDamagedCensus:
    @pytest.mark.parametrize("damage", [_drop_last_line, _repeat_first_line,
                                        _remove_manifest, _one_coatom_connector,
                                        _shared_pair, _relabelled_copy, _corrupt_line,
                                        _wrong_total, _extra_stratum, _emptied_end_stratum,
                                        _truncated_interior_stratum],
                             ids=["truncated", "extra-line", "no-manifest", "invalid-graph",
                                  "shared-pair", "relabelled-copy", "corrupt-line",
                                  "wrong-total", "extra-stratum", "emptied-end-stratum",
                                  "truncated-interior-stratum"])
    def test_count_exits_input_code(self, tmp_path, capsys, damage):
        graphs = tmp_path / "graphs"
        assert run_cli("generate", "--coatoms", 5, "--out", graphs) == 0
        hint = damage(graphs) or "error"
        capsys.readouterr()
        out = tmp_path / "c5.csv"
        code = run_cli("count", "--coatoms", 5, "--max-atoms", 11,
                       "--graphs", graphs, "--out", out)
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "error" in err and hint in err
        assert not out.exists()


class TestFitEval:
    @pytest.fixture()
    def c3_csv(self, tmp_path, tables_to_1000):
        path = tmp_path / "c3.csv"
        rank3.write_csv(tables_to_1000[3], path)
        return path

    def test_fit_then_eval(self, tmp_path, c3_csv, capsys):
        fit_path = tmp_path / "c3.json"
        assert run_cli("fit", "--coatoms", 3, "--values", c3_csv,
                       "--out", fit_path) == 0
        data = json.loads(fit_path.read_text())
        assert data["c"] == 3 and data["period"] == 6
        assert run_cli("eval", "--quasipoly", fit_path, "--atoms", 1000) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == str(R_TABLE[3][1000])

    def test_single_coatom_count_fit_eval(self, tmp_path, capsys):
        csv_path, fit_path = tmp_path / "c1.csv", tmp_path / "c1.json"
        assert run_cli("count", "--coatoms", 1, "--max-atoms", 20, "--out", csv_path) == 0
        assert run_cli("fit", "--coatoms", 1, "--values", csv_path,
                       "--out", fit_path) == 0
        capsys.readouterr()
        assert run_cli("eval", "--quasipoly", fit_path, "--atoms", 5) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_short_table_exits_arity_code(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        rank3.write_csv(rank3.count_lattices(3, 12), short)
        code = run_cli("fit", "--coatoms", 3, "--values", short)
        assert code == cli.EXIT_ARITY
        assert "20" in capsys.readouterr().err

    def test_corrupt_table_exits_rejected_code(self, tmp_path, capsys):
        table = rank3.count_lattices(3, 30)
        table.values[25] += 1
        bad = tmp_path / "bad.csv"
        rank3.write_csv(table, bad)
        code = run_cli("fit", "--coatoms", 3, "--values", bad)
        assert code == cli.EXIT_REJECTED
        assert "25" in capsys.readouterr().err

    def test_missing_values_file(self, tmp_path, capsys):
        code = run_cli("fit", "--coatoms", 3, "--values", tmp_path / "no.csv")
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("table_c, max_atoms, fit_c", [(1, 320, 5), (4, 200, 3)],
                             ids=["c1-as-c5", "c4-as-c3"])
    def test_table_of_other_coatom_count(self, tmp_path, capsys, table_c, max_atoms, fit_c):
        csv_path, fit_path = tmp_path / "counts.csv", tmp_path / "fit.json"
        assert run_cli("count", "--coatoms", table_c, "--max-atoms", max_atoms,
                       "--out", csv_path) == 0
        code = run_cli("fit", "--coatoms", fit_c, "--values", csv_path, "--out", fit_path)
        assert code == cli.EXIT_INPUT
        assert "R(%d, 0..2)" % fit_c in capsys.readouterr().err
        assert not fit_path.exists()

    def test_failing_write_leaves_fit(self, tmp_path, c3_csv, monkeypatch):
        fit_path = tmp_path / "c3.json"
        assert run_cli("fit", "--coatoms", 3, "--values", c3_csv, "--out", fit_path) == 0
        before = fit_path.read_bytes()
        monkeypatch.setattr(rank3.quasifit, "quasipolynomial_to_json",
                            lambda fit, c: {"c": c, "constituents": object()})
        with pytest.raises(TypeError):
            run_cli("fit", "--coatoms", 3, "--values", c3_csv, "--out", fit_path)
        assert fit_path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []


class TestMalformedInput:
    @pytest.mark.parametrize("text", ["a,R\n0,0\n1\n", "a,R\n"],
                             ids=["one-field-row", "no-rows"])
    def test_fit_rejects_table(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run_cli("fit", "--coatoms", 3, "--values", path) == cli.EXIT_INPUT
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["+2916", " 2916", "2_916", "\u0662\u0669\u0661\u0666"],
                             ids=["plus-sign", "space", "underscore", "non-ascii-digits"])
    def test_fit_rejects_count_not_written(self, tmp_path, capsys, value):
        # R(5, 9) = 2916: with int() reading it, the 320-row table fits
        path, out = tmp_path / "c5.csv", tmp_path / "c5.json"
        rank3.write_csv(rank3.count_lattices(5, 320), path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\r\n9,2916\r\n", ("\r\n9,%s\r\n" % value).encode()))
        assert run_cli("fit", "--coatoms", 5, "--values", path, "--out", out) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: expected ASCII digits, got %r\n" % value
        assert not out.exists()

    @pytest.mark.parametrize("line, written", [
        ("conn_c5_r0.g6 1", "conn_c5_r0.g6 +1"),
        ("conn_c5_r4.g6 15", "conn_c5_r4.g6 1_5"),
        ("total 72", "total \u0667\u0662"),
    ], ids=["plus-sign", "underscore", "non-ascii-digits"])
    def test_count_rejects_manifest_count_not_written(self, tmp_path, capsys, line, written):
        rank3.write_graph_files(tmp_path, 5)
        manifest, out = tmp_path / "conn_c5.manifest", tmp_path / "c5.csv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines[lines.index(line)] = written
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("count", "--coatoms", 5, "--max-atoms", 11, "--graphs", tmp_path,
                       "--out", out) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: malformed manifest %r\n" % str(manifest)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("constituents", None), ("coefficient", "1/0"),
        ("constituents", [["1/2", "1"]]), ("constituents", [[0.1, 1]]),
        ("constituents", ["12"]), ("constituents", [{"5": 0}]),
        ("constituents", [[]]), ("constituents", [[1e400]]),
        ("n0_observed", ""), ("n0_observed", 0.0), ("n0_observed", False),
        ("c", 0), ("c", -3), ("n0_guaranteed", -7), ("n0_observed", -2), ("n0_observed", 99),
        ("coefficient", "1e7000000"), ("coefficient", "1_000"), ("coefficient", "+12"),
        ("coefficient", " 12 "), ("coefficient", "12e0"), ("coefficient", "\u0661\u0662"),
    ], ids=["no-constituents", "zero-denominator", "non-integer-value", "float-coefficient",
            "string-constituent", "dict-constituent", "empty-constituent", "overflowing-float",
            "empty-string-observed", "float-observed", "false-observed",
            "zero-coatoms", "negative-coatoms", "negative-guaranteed", "negative-observed",
            "observed-above-guaranteed", "exponent", "underscore", "plus-sign", "spaces",
            "zero-exponent", "non-ascii-digits"])
    def test_eval_rejects_fit(self, tmp_path, capsys, key, value):
        # the reference form of c = 3 has n0_guaranteed = n0_observed = 0
        data = rank3.quasipolynomial_to_json(rank3.reference_quasipolynomial(3), 3)
        if key == "coefficient":
            data["constituents"][0][0] = value
        elif key in ("n0_observed", "n0_guaranteed", "c"):
            data[key] = value
        elif value is None:
            del data["constituents"]
        else:
            data.update(constituents=value, period=1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run_cli("eval", "--quasipoly", path, "--atoms", 10) == cli.EXIT_INPUT
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert run_cli("verify", "--max-total", 6) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out
        assert "MISMATCH" not in out

    def test_mismatch_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(rank3.genconn, "brute_force_count",
                            lambda c, a: 10 ** 9)
        assert run_cli("verify", "--max-total", 4) == cli.EXIT_MISMATCH
        assert "MISMATCH" in capsys.readouterr().out

    def test_duality_mismatch_exits_nonzero(self, monkeypatch, capsys):
        # R(2, 3) is right, but its dual R(3, 2) is one too large
        count = rank3.pipeline.count_lattices

        def off_by_one(c, max_atoms):
            table = count(c, max_atoms)
            if c == 3:
                table.values[2] += 1
            return table

        monkeypatch.setattr(rank3.pipeline, "count_lattices", off_by_one)
        assert run_cli("verify", "--max-total", 5) == cli.EXIT_MISMATCH
        out = capsys.readouterr().out
        assert "c=2  a=3  pipeline=3            oracle=3            MISMATCH" in out.splitlines()
        assert out.count("MISMATCH") == 2    # c=2 a=3 and c=3 a=2

    def test_range_checked(self, capsys):
        assert run_cli("verify", "--max-total", 40) == cli.EXIT_INPUT


class TestParser:
    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit) as info:
            run_cli("frobnicate")
        assert info.value.code == 2

    def test_console_script_installed(self):
        exe = shutil.which("rank3")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout
