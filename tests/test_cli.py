"""End-to-end command-line behaviour, including exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import pickle
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from czorbits import cli, groups, kernels, workspace
from czorbits.cli import build_parser, main
from czorbits.io import format_matrix
from czorbits.matrices import CNOT_T1, CZ, GateMatrix, I4
from czorbits.ring import parse_entry
from ringref import OMEGA, ONE, ZERO
from test_golden import GOLDEN_SHA256


@pytest.fixture(scope="module")
def atlas(tmp_path_factory, ws):
    d = tmp_path_factory.mktemp("atlas")
    assert main(["generate", "--out-dir", str(d)]) == 0
    return d


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "czorbits.cli", *args],
        capture_output=True,
        text=True,
    )


class TestGenerate:
    def test_writes_three_tables(self, atlas, capsys):
        for name in ("c1", "lc2", "c2"):
            assert (atlas / f"{name}.tbl").is_file()

    def test_idempotent_bytes(self, atlas):
        before = {p.name: p.read_bytes() for p in atlas.glob("*.tbl")}
        assert main(["generate", "--out-dir", str(atlas)]) == 0
        after = {p.name: p.read_bytes() for p in atlas.glob("*.tbl")}
        assert before == after

    def test_env_var_selects_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLIFFORD_ATLAS_DIR", str(tmp_path / "via_env"))
        assert main(["generate"]) == 0
        assert (tmp_path / "via_env" / "c1.tbl").is_file()


class TestOrbits:
    def test_stdout_matches_summary_file(self, atlas, capsys):
        assert main(["orbits", "--out-dir", str(atlas)]) == 0
        out = capsys.readouterr().out
        assert out == (atlas / "orbit_summary.txt").read_text()
        assert len(out.strip().splitlines()) == 20
        assert (atlas / "orbit_map.txt").is_file()


class TestGraph:
    def test_dot(self, atlas, capsys):
        assert main(["graph", "--out-dir", str(atlas)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph cz_orbits {")
        assert out.rstrip().endswith("}")
        assert sum(" -- " in line for line in out.splitlines()) == 90

    def test_json(self, atlas, capsys):
        assert main(["graph", "--format", "json", "--out-dir", str(atlas)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nodes"]) == 20
        assert len(doc["edges"]) == 90
        assert all(e["weight"] == 512 for e in doc["edges"])
        assert all(n["reference_label"].startswith("O") for n in doc["nodes"])


class TestSynth:
    def test_element_with_verify(self, atlas, capsys):
        assert main(
            ["synth", "--element", "0", "--verify", "--out-dir", str(atlas)]
        ) == 0
        assert capsys.readouterr().out.startswith("CZ-COUNT ")

    def test_cz_from_file(self, atlas, tmp_path, capsys):
        path = tmp_path / "cz.txt"
        path.write_text(format_matrix(CZ))
        assert main(["synth", str(path), "--out-dir", str(atlas)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "CZ-COUNT 1"

    def test_time_order_reverses_lines(self, atlas, tmp_path, capsys):
        path = tmp_path / "cnot.txt"
        path.write_text(format_matrix(CNOT_T1))
        assert main(["synth", str(path), "--out-dir", str(atlas)]) == 0
        product = capsys.readouterr().out.splitlines()
        args = ["synth", str(path), "--time-order", "--out-dir", str(atlas)]
        assert main(args) == 0
        timed = capsys.readouterr().out.splitlines()
        assert product[0] == timed[0] == "CZ-COUNT 1"
        assert timed[1:] == product[1:][::-1]


class TestLookup:
    def test_cnot(self, atlas, tmp_path, capsys):
        path = tmp_path / "cnot.txt"
        path.write_text(format_matrix(CNOT_T1))
        assert main(["lookup", str(path), "--out-dir", str(atlas)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("element ")
        assert lines[1].startswith("orbit O")
        assert lines[2].startswith("reference-label O")
        assert lines[3] == "layer 1"

    def test_identity_by_element_id(self, atlas, ws, capsys):
        eid = ws.c2.contains(I4)
        args = ["lookup", "--element", str(eid), "--out-dir", str(atlas)]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "orbit O1"
        assert lines[3] == "layer 0"


class TestOneLookup:
    @pytest.mark.parametrize("command", ["lookup", "synth"])
    def test_member_file_needs_no_matrix_product(self, atlas, tmp_path, monkeypatch,
                                                 capsys, command):
        # a member resolves by membership alone; the exact unitarity
        # product runs only for a matrix outside the group
        def refuse(*args):
            raise AssertionError("a member query multiplied matrices")

        path = tmp_path / "cnot.txt"
        path.write_text(format_matrix(CNOT_T1))
        monkeypatch.setattr(kernels, "mat_mul", refuse)
        monkeypatch.setattr(kernels, "mat_dagger", refuse)
        assert main([command, str(path), "--out-dir", str(atlas)]) == 0
        assert capsys.readouterr().out


class TestLoadedWorkspace:
    @pytest.fixture
    def queries(self, atlas, tmp_path):
        """lookup and synth --verify on a member's file and on --element, then a
        unitary non-member and a non-unitary matrix, which exit 0, 0, 0, 0, 4, 4."""
        rows = [[ZERO] * 4 for _ in range(4)]
        for i in range(3):
            rows[i][i] = ONE
        rows[3][3] = OMEGA
        member, outside, skew = tmp_path / "cnot.txt", tmp_path / "cs.txt", tmp_path / "half.txt"
        member.write_text(format_matrix(CNOT_T1))
        outside.write_text(format_matrix(GateMatrix.from_entries(rows)))
        # every row has norm 1 and passes the entry bound; the exact product fails
        skew.write_text("4\n" + "1,0,0,0/2 1,0,0,0/2 1,0,0,0/2 1,0,0,0/2\n" * 4)
        queries = [["lookup", str(member)], ["lookup", "--element", "83679"],
                   ["synth", str(member), "--verify"], ["synth", "--element", "83679", "--verify"],
                   ["lookup", str(outside)], ["synth", str(skew), "--verify"]]
        return [[*argv, "--out-dir", str(atlas)] for argv in queries]

    def test_queries_derive_no_action_or_tree(self, ws, queries, monkeypatch, capsys):
        # lookup and synth read keys, row books and plans; a loaded workspace
        # answers them without making `right`, a tree or a left action
        loaded = pickle.loads(pickle.dumps(ws, protocol=pickle.HIGHEST_PROTOCOL))
        for cache in (ws, loaded):
            monkeypatch.setattr(workspace, "_CACHE", cache)
            codes = [main(argv) for argv in queries]
            assert codes == [0, 0, 0, 0, 4, 4]
            if cache is ws:
                want = capsys.readouterr()
        assert capsys.readouterr() == want
        for table in (loaded.c1, loaded.lc2, loaded.c2):
            assert not set(groups.DERIVED) & set(vars(table)), table.name

    def test_a_loaded_workspace_answers_without_numpy(self, ws, queries, tmp_path, monkeypatch,
                                                     capsys):
        # a fresh interpreter imports the CLI, loads the pickled workspace and
        # answers the queries as the built workspace does, with no numpy; then
        # `generate` and `orbits` write the pinned files from it
        monkeypatch.setattr(workspace, "_CACHE", ws)
        codes = [main(argv) for argv in queries]
        assert codes == [0, 0, 0, 0, 4, 4]
        want = capsys.readouterr()
        (tmp_path / "ws.pickle").write_bytes(pickle.dumps(ws, protocol=pickle.HIGHEST_PROTOCOL))
        child = (
            "import json, pickle, sys\n"
            "import czorbits.cli as cli\n"
            "from czorbits import workspace\n"
            "with open(sys.argv[1], 'rb') as f:\n"
            "    workspace._CACHE = pickle.load(f)\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]\n"
            "print(codes, 'numpy' in sys.modules)\n"
            "for command in ('generate', 'orbits'):\n"
            "    assert cli.main([command, '--out-dir', sys.argv[3]]) == 0\n"
        )
        out_dir = tmp_path / "written"
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "ws.pickle"), json.dumps(queries),
             str(out_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == want.err
        assert proc.stdout.startswith(want.out + f"{codes} False\n")
        for name, digest in GOLDEN_SHA256.items():
            if name != "graph.json":
                assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name


class TestParserReuse:
    def test_usage_errors_then_good_command_build_no_parser(self, atlas, capsys, monkeypatch):
        assert main(["lookup", "--element", "0", "--out-dir", str(atlas)]) == 0
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for bad in ([], ["lookup", "--element", "92160", "--out-dir", str(atlas)]):
            with pytest.raises(SystemExit) as err:
                main(bad)
            assert err.value.code == 2
        capsys.readouterr()
        assert main(["lookup", "--element", "0", "--out-dir", str(atlas)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["element 0", "orbit O1"]
        assert built == []


COMMANDS = ["generate", "orbits", "graph", "synth", "lookup", "verify"]

# valid and invalid argvs alike: help, abbreviations, `=` forms, leftovers,
# `--`, unknown commands and options before the command; then argvs that
# `cli._scan` declines whole to the full parser (a late positional, a value
# that starts with "-" or that `int` or the choices read their own way, a
# repeated option) and the odd tokens argparse takes as values
DISPATCH_ARGVS = [
    [], ["-h"], ["--help"],
    *([command, "-h"] for command in COMMANDS),
    *([command, "--h"] for command in COMMANDS),
    ["lookup", "--elem", "5"], ["lookup", "--element=5"], ["lookup", "--element", "x"],
    ["lookup", "--element"], ["lookup", "--element", "-1"], ["lookup", "--e", "3", "--no"],
    ["lookup", "a.txt", "b.txt"], ["lookup", "a.txt", "--bogus"], ["lookup", "--", "a.txt"],
    ["lookup", "--", "-"], ["lookup", "--", "--element", "5"], ["lookup", "lookup"],
    ["lookup", "a.txt", "--out-dir=d"], ["lookup", "--out-dir", "d", "--help"],
    ["synth", "a.txt", "--verify", "--time-order"], ["synth", "--ver", "--element", "7"],
    ["synth", "--element", "5", "--element", "6", "--out-dir", "d", "--no-regen"],
    ["bogus"], ["LOOKUP"], ["look"], ["--out-dir", "d", "lookup"], ["-x"],
    ["graph", "--format", "xml"], ["graph", "--format", "json"], ["graph", "--form", "dot"],
    ["generate", "extra"], ["generate", "--out-dir", "d"], ["orbits", "--out-dir"],
    ["verify", "--no-regen"],
    ["lookup", "--no-regen", "a.txt"], ["lookup", "--element", "5", "a.txt"],
    ["lookup", "--out-dir", "-d"], ["generate", "--out-dir", "-d", "--no-regen"],
    ["graph", "--format", "json", "--format", "dot"], ["graph", "--format", "dot", "--format"],
    ["synth", "--verify", "--verify", "--element", "3"], ["orbits", "--no-regen", "--no-regen"],
    ["lookup", "-"], ["lookup", "-", "--out-dir", "d"], ["lookup", "--out-dir", "-"],
    ["lookup", "-x"], ["synth", "-1", "--verify"], ["lookup", "--element", "+5"],
    ["lookup", "--element", "1_0"], ["lookup", "--element", "١"],
    ["lookup", "--element", " 7 "], ["lookup", "--element", ""], ["lookup", ""],
    ["lookup", "--out-dir", ""], ["graph", "--format", "JSON"], ["lookup", "a.txt", "-h"],
    ["synth", "--time-order", "--element", "9", "--out-dir", "d", "--verify"],
]


class _Parsed(Exception):
    """Raised in place of building the workspace, once `main` has parsed."""


def _outcome(fn, argv):
    """The exit code (None if none) and the stdout and stderr of fn(argv)."""
    code, out, err = None, io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fn(argv)
        except SystemExit as exc:
            code = exc.code
        except _Parsed:
            pass
    return code, out.getvalue(), err.getvalue()


# the CLI's vocabulary for drawn argvs: commands, every option string, their
# abbreviations and `=` forms, `--`, `-`, help, choices and non-choices, and
# values that `int` and argparse read their own way
ARGV_TOKENS = [
    *COMMANDS, "-h", "--help", "--h", "--", "-", "-x", "--bogus",
    "--out-dir", "--out", "--out-dir=d", "--no-regen", "--no", "--no-regen=1",
    "--element", "--elem", "--element=5", "--verify", "--ver", "--time-order", "--time",
    "--format", "--form", "--format=json", "dot", "json", "xml",
    "0", "83679", "92160", "-1", "+5", "1_0", "١", "", "a.txt", "d",
]


class TestDispatch:
    @pytest.fixture
    def parses_as_the_full_parser(self, monkeypatch):
        """A check that `main` parses argv as `build_parser().parse_args` does:
        the same exit code, stdout and stderr and, for a valid argv, the same
        namespace. It returns whether `cli._scan` took the argv."""
        parsed = []
        real_parse = cli._parse

        def recording_parse(argv):
            parsed.append(real_parse(argv))
            return parsed[-1]

        def stop():
            raise _Parsed

        monkeypatch.setattr(cli, "_parse", recording_parse)
        monkeypatch.setattr(cli, "build_workspace", stop)

        def check(argv):
            want = []
            expected = _outcome(lambda a: want.append(vars(build_parser().parse_args(a))), argv)
            parsed.clear()
            assert _outcome(main, argv) == expected, argv
            assert [vars(args) for args in parsed] == want, argv
            return bool(argv) and argv[0] in COMMANDS and cli._scan(argv[0], argv[1:]) is not None

        return check

    def test_main_parses_as_the_full_parser(self, parses_as_the_full_parser):
        assert len(DISPATCH_ARGVS) >= 30
        scanned = [parses_as_the_full_parser(argv) for argv in DISPATCH_ARGVS]
        assert any(scanned) and not all(scanned)

    def test_drawn_argvs_parse_as_the_full_parser(self, parses_as_the_full_parser):
        scanned = []
        tokens = st.lists(st.sampled_from(ARGV_TOKENS), max_size=6)

        @settings(derandomize=True, max_examples=400, deadline=None, database=None)
        @given(st.one_of(tokens, st.builds(lambda c, rest: [c, *rest],
                                           st.sampled_from(COMMANDS), tokens)))
        def check(argv):
            scanned.append(parses_as_the_full_parser(argv))

        check()
        assert any(scanned) and not all(scanned)

    def test_a_well_formed_query_runs_no_argparse_parse(self, atlas, tmp_path, monkeypatch,
                                                       capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a well-formed query ran an argparse parse")

        path = tmp_path / "cnot.txt"
        path.write_text(format_matrix(CNOT_T1))
        for parser in (build_parser(), *cli._commands().values()):
            monkeypatch.setattr(parser, "parse_known_args", refuse)
        queries = [["lookup", str(path)], ["lookup", "--element", "0", "--no-regen"],
                   ["synth", str(path), "--verify", "--time-order"],
                   ["synth", "--element", "83679", "--verify"]]
        assert [main([*argv, "--out-dir", str(atlas)]) for argv in queries] == [0, 0, 0, 0]
        out = capsys.readouterr().out
        assert "\nelement 0\n" in out and out.count("CZ-COUNT ") == 2

    @pytest.mark.parametrize(
        "argv, message",
        [(["lookup"], "provide exactly one of FILE or --element ID"),
         (["synth", "a.txt", "--element", "5"], "provide exactly one of FILE or --element ID"),
         (["lookup", "--element", "92160"], "--element: ")],
        ids=["neither", "both", "out-of-range"],
    )
    def test_resolve_errors_name_the_program(self, atlas, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out-dir", str(atlas)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: czorbits [-h]")
        assert f"\nczorbits: error: {message}" in stderr


class TestExitCodes:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_file_and_element_together(self, atlas, tmp_path):
        path = tmp_path / "cz.txt"
        path.write_text(format_matrix(CZ))
        args = ["synth", str(path), "--element", "5", "--out-dir", str(atlas)]
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2

    def test_element_out_of_range(self, atlas):
        with pytest.raises(SystemExit) as err:
            main(["lookup", "--element", "92160", "--out-dir", str(atlas)])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["lookup", "synth"])
    def test_negative_element_id(self, atlas, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--element", "-1", "--out-dir", str(atlas)])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["lookup", "synth"])
    @pytest.mark.parametrize(
        "text",
        [
            "2\n1000000,0,0,0/0 0,0,0,0/0\n0,0,0,0/0 1000000,0,0,0/0\n",
            "4\n" + "\n".join([" ".join(["524288,0,0,0/0"] * 4)] * 4) + "\n",
        ],
        ids=["diagonal-1e6", "all-ones-2^19"],
    )
    def test_large_coefficient_non_unitary(self, atlas, tmp_path, capsys, command, text):
        path = tmp_path / "big.txt"
        path.write_text(text)
        assert main([command, str(path), "--out-dir", str(atlas)]) == 4
        assert "not unitary" in capsys.readouterr().err

    def test_non_unitary_with_fresh_tokens(self, atlas, tmp_path, capsys):
        # sixteen tokens no query has parsed, then the same file again from the
        # entry cache: both runs reject the matrix as non-unitary
        tokens = [f"0,{3001 + n},0,0/0" for n in range(16)]
        path = tmp_path / "fresh.txt"
        path.write_text("4\n" + "".join(" ".join(tokens[i:i + 4]) + "\n" for i in (0, 4, 8, 12)))
        before = parse_entry.cache_info()
        assert main(["lookup", str(path), "--out-dir", str(atlas)]) == 4
        first = capsys.readouterr().err
        assert parse_entry.cache_info().misses == before.misses + 16
        assert main(["lookup", str(path), "--out-dir", str(atlas)]) == 4
        assert capsys.readouterr().err == first
        assert "not unitary" in first

    @pytest.mark.parametrize("command", ["lookup", "synth"])
    @pytest.mark.parametrize(
        "token", ["1_0,0,0,0/0", "\u0661,0,0,0/0", "1,0,0,0/1_6"], ids=["1_0", "arabic-1", "k-1_6"]
    )
    def test_entry_outside_grammar_is_malformed(self, atlas, tmp_path, capsys, command, token):
        # identity with one entry replaced; int() would read these as 10, 1 and 16
        rows = [["1,0,0,0/0" if i == j else "0,0,0,0/0" for j in range(4)] for i in range(4)]
        rows[0][0] = token
        path = tmp_path / "odd.txt"
        path.write_text("4\n" + "\n".join(" ".join(row) for row in rows) + "\n")
        assert main([command, str(path), "--out-dir", str(atlas)]) == 3
        assert "malformed" in capsys.readouterr().err

    def test_malformed_matrix(self, atlas, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n")
        assert main(["lookup", str(path), "--out-dir", str(atlas)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, atlas, tmp_path, capsys):
        path = tmp_path / "nope.txt"
        assert main(["lookup", str(path), "--out-dir", str(atlas)]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_non_unitary(self, atlas, tmp_path, capsys):
        shear = GateMatrix.from_entries([[ONE, ONE], [ZERO, ONE]])
        path = tmp_path / "shear.txt"
        path.write_text(format_matrix(shear))
        assert main(["lookup", str(path), "--out-dir", str(atlas)]) == 4
        assert "not unitary" in capsys.readouterr().err

    def test_unitary_non_member(self, atlas, tmp_path, capsys):
        rows = [[ZERO] * 4 for _ in range(4)]
        for i in range(3):
            rows[i][i] = ONE
        rows[3][3] = OMEGA  # controlled phase pi/4 sits outside the group
        path = tmp_path / "cs.txt"
        path.write_text(format_matrix(GateMatrix.from_entries(rows)))
        assert main(["lookup", str(path), "--out-dir", str(atlas)]) == 4
        assert "not an element" in capsys.readouterr().err

    def test_no_regen_with_missing_tables(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        code = main(["orbits", "--out-dir", str(empty), "--no-regen"])
        assert code == 3
        assert "regeneration is disabled" in capsys.readouterr().err

    def test_verify_rejects_corrupt_table(self, atlas, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(atlas, broken)
        blob = (broken / "c1.tbl").read_bytes()
        (broken / "c1.tbl").write_bytes(blob[:-40] + b"\x00" * 40)
        assert main(["verify", "--out-dir", str(broken)]) == 3
        assert "corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, below",
        [(["lookup", "--element", "0"], ""), (["generate"], "sub"), (["orbits"], "")],
        ids=["lookup", "generate", "orbits"],
    )
    def test_unusable_table_directory(self, tmp_path, capsys, args, below):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert main([*args, "--out-dir", str(blocker / below)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: table directory") and str(blocker) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "resize", [lambda b: b[:-1], lambda b: b + b"\n"], ids=["truncated", "trailing"]
    )
    def test_verify_rejects_resized_table(self, atlas, tmp_path, capsys, resize):
        broken = tmp_path / "broken"
        shutil.copytree(atlas, broken)
        (broken / "c1.tbl").write_bytes(resize((broken / "c1.tbl").read_bytes()))
        assert main(["verify", "--out-dir", str(broken)]) == 3
        assert "corrupt" in capsys.readouterr().err


# the report's check names, in the order it prints them
REPORT_NAMES = [
    "c1-order", "lc2-order", "c2-order", "lc2-dedup-ratio",
    "orbit-count", "orbit-sizes", "orbit-cover", "identity-orbit-is-lc2",
    "weights-law", "diagonal-zero", "weight-symmetry", "degrees", "edge-count",
    "layer-profile", "layer-element-counts", "layer-is-graph-distance",
    "figure-isomorphism", "cnot-equivalence",
    "synthesis-full-sweep-failures", "synthesis-max-cz",
    "unitarity-exact-failures", "unitarity-numeric-below-1e-12",
    "group-axioms-sample", "coset-invariance-sample", "coset-well-definedness-sample",
    "word-roundtrip-sample", "action-table-sample",
    "right-table-exact", "left-gather-exact",
    "determinism-rebuild",
]


class TestVerifyCommand:
    def test_full_report_passes(self, verify_run):
        code, lines = verify_run
        assert code == 0
        assert [line.split()[1] for line in lines[:-1]] == REPORT_NAMES
        assert lines[-1] == "OVERALL PASS"
        assert "CHECK orbit-count expected=20 observed=20 PASS" in lines
        assert all(line.endswith("PASS") for line in lines)


class TestSubprocess:
    """Real process boundary: module entry point, stdin, exit codes."""

    def test_stdin_lookup(self, atlas):
        proc = subprocess.run(
            [sys.executable, "-m", "czorbits.cli", "lookup", "-",
             "--out-dir", str(atlas)],
            input=format_matrix(CNOT_T1),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "layer 1" in proc.stdout

    @pytest.mark.parametrize("command", ["lookup", "synth"])
    def test_matrix_file_not_utf8(self, atlas, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe4\n")
        proc = run_cli([command, str(path), "--out-dir", str(atlas)])
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot read")
        assert "Traceback" not in proc.stderr

    def test_usage_error_exit_code(self):
        proc = run_cli([])
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
