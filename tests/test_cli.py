import gc
import json
import os
import resource
import stat
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machh as M
from machh.cli import main
from machh.cohomology import CohomologyEngine
from machh.errors import InternalInconsistency, MachhError, ParseError, VertexOutOfRange
from machh.serialization import (
    complex_from_dict,
    complex_to_dict,
    load_complex,
    render_table_csv,
)
from machh.double import hh_ranks

from conftest import subprocess_env


def write_complex(path, K, meta=None):
    path.write_text(json.dumps(complex_to_dict(K, meta)))
    return str(path)


@pytest.fixture()
def square_file(tmp_path, square):
    return write_complex(tmp_path / "square.json", square)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


small_ints = st.integers(-8, 8)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(-8, 8) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["m", "facets", "labels", "x"]), inner, max_size=4),
    max_leaves=12,
)


class TestSerialization:
    def test_roundtrip(self, square):
        assert complex_from_dict(complex_to_dict(square)) == square

    def test_bad_documents(self):
        with pytest.raises(ParseError):
            complex_from_dict([1, 2])
        with pytest.raises(ParseError):
            complex_from_dict({"facets": [[1]]})
        with pytest.raises(ParseError):
            complex_from_dict({"m": 2, "facets": "nope"})
        with pytest.raises(ParseError):
            complex_from_dict({"m": 2, "facets": [[True, 2]]})
        with pytest.raises(ParseError):
            complex_from_dict({"m": True, "facets": [[1]]})
        with pytest.raises(ParseError):
            complex_from_dict({"m": 2, "facets": [[1, 2.0]]})

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            json_values,
            st.fixed_dictionaries({"m": json_values, "facets": json_values}),
            st.fixed_dictionaries(
                {"m": small_ints, "facets": st.lists(st.lists(json_values, max_size=4), max_size=4)}
            ),
        )
    )
    def test_arbitrary_json_raises_only_machh_errors(self, doc):
        try:
            K = complex_from_dict(doc)
        except MachhError:
            return
        assert complex_from_dict(complex_to_dict(K)) == K

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_complex(tmp_path / "absent.json")

    def test_csv_render(self, square):
        assert render_table_csv(hh_ranks(CohomologyEngine(square))) == (
            "k,l,rank\n0,0,1\n1,2,2\n2,4,1\n"
        )


class TestRankCommands:
    def test_hh_json(self, capsys, square_file):
        code, out, _ = run_main(capsys, "hh", square_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["hh"] == {"(0,0)": 1, "(-1,4)": 2, "(-2,8)": 1}
        assert doc["hh_total"] == 4
        assert doc["hh_rows"] == {"-1": 1, "0": 2, "1": 1}
        assert doc["euler_hh"] == 0
        assert doc["field"] == "Q"

    def test_h_json(self, capsys, square_file):
        code, out, _ = run_main(capsys, "h", square_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == {"(0,0)": 1, "(-1,4)": 2, "(-2,8)": 1}
        assert "hh" not in doc

    def test_gf_field_and_verify_exact(self, capsys, square_file):
        code, out, _ = run_main(
            capsys, "hh", square_file, "--field", "gf:32003", "--verify-exact"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["field"] == "GF(32003)"
        assert doc["verified_exact"] is True

    def test_formats(self, capsys, square_file):
        code, out, _ = run_main(capsys, "hh", square_file, "--format", "csv")
        assert code == 0 and out.startswith("k,l,rank\n")
        code, out, _ = run_main(capsys, "hh", square_file, "--format", "table")
        assert code == 0 and out.startswith("hh\n") and "total      4" in out

    def test_deterministic_across_runs(self, capsys, square_file):
        outputs = set()
        for _ in range(3):
            code, out, _ = run_main(capsys, "hh", square_file)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_threads_env_default(self, capsys, square_file, monkeypatch):
        # there is no thread pool: the flag is unknown and the variable is ignored
        code, _, err = run_main(capsys, "hh", square_file, "--threads", "4")
        assert code == 2 and "--threads" in err
        monkeypatch.delenv("MACHH_THREADS", raising=False)
        _, plain, _ = run_main(capsys, "hh", square_file)
        monkeypatch.setenv("MACHH_THREADS", "banana")
        code, out, _ = run_main(capsys, "hh", square_file)
        assert code == 0 and out == plain

    def test_out_file(self, capsys, square_file, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_main(capsys, "hh", square_file, "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["hh_total"] == 4
        assert not (tmp_path / "result.json.tmp").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json", "square.json"]

    def test_out_file_with_tmp_name_taken(self, capsys, square_file, tmp_path):
        (tmp_path / "result.json.tmp").mkdir()
        target = tmp_path / "result.json"
        code, _, _ = run_main(capsys, "hh", square_file, "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["hh_total"] == 4
        assert (tmp_path / "result.json.tmp").is_dir()

    def test_out_fifo_is_written_in_place(self, capsys, square_file, tmp_path):
        # a target that is not a regular file keeps its kind: no file is renamed over it
        _, plain, _ = run_main(capsys, "hh", square_file)
        fifo = tmp_path / "result.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, out, _ = run_main(capsys, "hh", square_file, "--out", str(fifo))
        reader.join(timeout=10)
        assert (code, out) == (0, "")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == [plain.encode()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.fifo", "square.json"]

    def test_out_symlink_writes_the_file_it_points_to(self, capsys, square_file, tmp_path):
        _, plain, _ = run_main(capsys, "hh", square_file)
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "result.json"
        real.write_text("old")
        link = tmp_path / "result.json"
        link.symlink_to(real)
        code, out, _ = run_main(capsys, "hh", square_file, "--out", str(link))
        assert (code, out) == (0, "")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == plain
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "result.json", "square.json"]
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["result.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
    def test_out_new_file_mode_follows_the_umask(self, capsys, tmp_path, umask):
        target = tmp_path / "result.json"
        old = os.umask(umask)
        try:
            code, _, _ = run_main(capsys, "construct", "k2r", "--r", "1", "--out", str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("mode", [0o644, 0o604, 0o600], ids=oct)
    def test_out_existing_file_keeps_its_mode(self, capsys, tmp_path, mode):
        target = tmp_path / "result.json"
        target.write_text("old")
        target.chmod(mode)
        code, out, _ = run_main(capsys, "construct", "k2r", "--r", "1", "--out", str(target))
        assert (code, out) == (0, "")
        assert stat.S_IMODE(os.stat(target).st_mode) == mode
        assert json.loads(target.read_text())

    def test_unwritable_out(self, capsys, square_file, tmp_path):
        for target in (tmp_path / "absent" / "result.json", tmp_path):
            code, out, err = run_main(capsys, "hh", square_file, "--out", str(target))
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith("ParseError: cannot write")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["square.json"]

    def test_one_engine_per_complex_and_field(self, capsys, square_file, monkeypatch):
        built = []
        init = CohomologyEngine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CohomologyEngine, "__init__", counting_init)
        for argv, engines in [
            (["hh", square_file], 1),
            (["h", square_file], 1),
            (["hh", square_file, "--field", "gf:32003", "--verify-exact"], 2),
            (["check-thm1", square_file, "1,3"], 2),
        ]:
            built.clear()
            assert run_main(capsys, *argv)[0] == 0
            assert len(built) == engines, argv


ERROR_CASES = [
    ("NotApplicable", 1, ["check-thm1", "{square}", "1,2"]),
    ("ParseError", 2, ["hh", "{absent}"]),
    ("VertexOutOfRange", 2, ["hh", "{out_of_range}"]),
    ("BadSigma", 2, ["check-thm1", "{square}", "2"]),
    ("NotAVertex", 2, ["construct", "wedge", "{square}", "{square}", "--at-a", "9", "--at-b", "1"]),
    ("FaceAlreadyPresent", 2, ["construct", "glue", "{square}", "--face", "1,2"]),
    ("BoundaryMissing", 2, ["construct", "glue", "{square}", "--face", "1,2,3"]),
    ("ResourceLimit", 3, ["hh", "{square}", "--max-m", "3"]),
    ("GhostVertex", 4, ["hh", "{ghost}"]),
]


class TestExitCodes:
    @pytest.mark.parametrize("name,code,argv", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
    def test_error_class_exit_code(self, capsys, tmp_path, square_file, name, code, argv):
        (tmp_path / "range.json").write_text(json.dumps({"m": 2, "facets": [[1, 3]]}))
        (tmp_path / "ghost.json").write_text(json.dumps({"m": 3, "facets": [[1, 2]]}))
        files = {
            "square": square_file,
            "absent": str(tmp_path / "absent.json"),
            "out_of_range": str(tmp_path / "range.json"),
            "ghost": str(tmp_path / "ghost.json"),
        }
        got, out, err = run_main(capsys, *(a.format(**files) for a in argv))
        assert (got, out) == (code, "")
        assert err.startswith(f"{name}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "exc,code",
        [
            (InternalInconsistency("broken"), 5),
            (VertexOutOfRange("broken"), 2),
            (ValueError("broken"), 2),
        ],
        ids=["InternalInconsistency", "VertexOutOfRange", "ValueError"],
    )
    def test_error_raised_mid_request(self, capsys, square_file, monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("machh.cli.h_ranks", fail)
        assert run_main(capsys, "h", square_file) == (code, "", f"{type(exc).__name__}: broken\n")

    def test_memory_error_is_a_resource_limit(self, capsys, square_file, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("machh.cli.hh_ranks", fail)
        assert run_main(capsys, "hh", square_file) == (3, "", "ResourceLimit: out of memory\n")

    @pytest.mark.parametrize("limited", [True, False], ids=["finite-limit", "no-limit"])
    def test_system_error_is_a_resource_limit_only_under_a_limit(
        self, capsys, square_file, monkeypatch, limited
    ):
        # CPython 3.11 can fail an allocation near RLIMIT_AS with this SystemError
        def fail(argv):
            raise SystemError("error return without exception set")

        limit = 1 << 27 if limited else resource.RLIM_INFINITY
        monkeypatch.setattr("machh.cli._run", fail)
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
        if limited:
            assert run_main(capsys, "hh", square_file) == (3, "", "ResourceLimit: out of memory\n")
        else:
            with pytest.raises(SystemError, match="error return without exception set"):
                main(["hh", square_file])

    def test_inherit_from_an_unrelated_engine_is_a_bug(self, capsys, square_file, monkeypatch):
        # a glued complex equal to K cannot take over K's subsets: exit 5, not an input error
        monkeypatch.setattr("machh.theorem.glue_simplex", lambda K, sigma: K)
        code, out, err = run_main(capsys, "check-thm1", square_file, "1,3")
        assert (code, out) == (5, "")
        assert err.startswith("InternalInconsistency: ") and err.count("\n") == 1, err

    def test_resource_limit(self, capsys, square_file):
        code, _, err = run_main(capsys, "hh", square_file, "--max-m", "3")
        assert code == 3 and "ResourceLimit" in err

    def test_ghost_vertex(self, capsys, tmp_path):
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps({"m": 3, "facets": [[1, 2]]}))
        code, _, err = run_main(capsys, "hh", str(path))
        assert code == 4 and "GhostVertex" in err

    def test_parse_errors(self, capsys, tmp_path, square_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_main(capsys, "hh", str(bad))[0] == 2
        assert run_main(capsys, "hh", str(tmp_path / "absent.json"))[0] == 2
        assert run_main(capsys, "hh", square_file, "--field", "gf:15")[0] == 2
        assert run_main(capsys, "hh", square_file, "--max-m", "0")[0] == 2
        assert run_main(capsys, "ladder", "--r-max", "0")[0] == 2
        # a repeated vertex is refused, not merged into the set it repeats
        assert run_main(capsys, "check-thm1", square_file, "1,3,1")[0] == 2
        assert run_main(capsys, "construct", "glue", square_file, "--face", "1,3,1")[0] == 2
        # so is an empty entry, not dropped to read a shorter list
        out_file = tmp_path / "out.json"
        for argv in [
            ["check-thm1", square_file, "1,,3"],
            ["check-thm1", square_file, ",1,3,"],
            ["check-thm1", square_file, " 1, ,3"],
            ["construct", "glue", square_file, "--face", ",1,3,"],
        ]:
            code, out, err = run_main(capsys, *argv, "--out", str(out_file))
            assert (code, out) == (2, ""), argv
            assert err.startswith("ParseError: ") and err.count("\n") == 1, (argv, err)
            assert not out_file.exists(), argv

    def test_unparseable_files(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10_000 + "]" * 10_000)
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"m": 2, "facets": [[1], [2]], "labels": ["\xe9", "b"]}')
        folder = tmp_path / "folder.json"
        folder.mkdir()
        for path in (deep, latin, folder):
            for argv in (["hh", str(path)], ["check-thm1", str(path), "1,2"]):
                code, out, err = run_main(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert err.startswith("ParseError: ") and err.count("\n") == 1, (argv, err)

    def test_refused_call_leaves_the_parser_as_it_was(self, capsys, square_file):
        # the parser is built once per process; a refusal must not change it
        code, first, _ = run_main(capsys, "h", square_file, "--format", "csv")
        assert code == 0
        for argv in [
            ["h", square_file, "--format", "xml"],
            ["h", square_file, "--verify-exact"],
            ["h", square_file, "--max-m", "ten"],
            ["h"],
            ["nonsense"],
            ["oracle", square_file],
        ]:
            assert run_main(capsys, *argv)[0] == 2, argv
        assert run_main(capsys, "h", square_file, "--format", "csv") == (0, first, "")
        code, out, _ = run_main(capsys, "hh", square_file, "--field", "gf:3")
        assert code == 0 and json.loads(out)["hh_total"] == 4

    def test_huge_prime_refused_at_once(self, capsys, square_file):
        start = time.perf_counter()
        code, _, err = run_main(capsys, "hh", square_file, "--field", "gf:2305843009213693951")
        assert code == 2 and "2**31" in err
        assert time.perf_counter() - start < 5.0

    def test_flags_only_where_read(self, capsys, square_file):
        for argv in [
            ["check-thm1", square_file, "1,3", "--verify-exact"],
            ["check-thm1", square_file, "1,3", "--format", "csv"],
            ["h", square_file, "--verify-exact"],
            ["ladder", "--r-max", "2", "--verify-exact"],
            ["construct", "k2r", "--r", "3", "--max-m", "1"],
            ["construct", "glue", square_file, "--face", "1,3", "--format", "csv"],
        ]:
            assert run_main(capsys, *argv)[0] == 2, argv

    def test_check_thm1_cap_before_rank_work(self, capsys, square_file, monkeypatch):
        built = []
        monkeypatch.setattr(CohomologyEngine, "__init__", lambda self, *a, **k: built.append(self))
        code, _, err = run_main(capsys, "check-thm1", square_file, "1,2", "--max-m", "3")
        assert code == 3 and "ResourceLimit" in err
        assert built == []

    def test_cap_before_closure(self, capsys, tmp_path, monkeypatch):
        # one 18-vertex facet closes to 2**18 faces; --max-m must refuse it first
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"m": 18, "facets": [list(range(1, 19))]}))

        def refuse(cls, m, facets):
            raise AssertionError("facets expanded before the --max-m check")

        monkeypatch.setattr(M.SimplicialComplex, "from_facets", classmethod(refuse))
        for argv in (["hh", str(path)], ["h", str(path)], ["check-thm1", str(path), "1,2"]):
            code, _, err = run_main(capsys, *argv, "--max-m", "10")
            assert code == 3 and "ResourceLimit" in err, (argv, err)

    def test_ladder_cap_before_any_member(self, capsys, monkeypatch):
        # r = 1000 needs m = 22 > 10: refused before r = 1..16 are computed
        def refuse(r):
            raise AssertionError("a family member was built before the --max-m check")

        monkeypatch.setattr("machh.cli.k2r_family", refuse)
        code, out, err = run_main(capsys, "ladder", "--r-max", "1000", "--max-m", "10")
        assert (code, out) == (3, "")
        assert err == "ResourceLimit: family member r=1000 needs m=22 > --max-m 10\n"

    def test_construct_vertex_cap(self, capsys, tmp_path):
        points = M.SimplicialComplex.from_facets(20, [[v] for v in range(1, 21)])
        a = write_complex(tmp_path / "points.json", points)
        target = tmp_path / "big.json"
        for argv in [
            ["join", a, a],
            ["wedge", a, a, "--at-a", "1", "--at-b", "1"],
        ]:
            code, out, err = run_main(capsys, "construct", *argv, "--out", str(target))
            assert code == 3 and "ResourceLimit" in err, argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["points.json"]
        start = time.perf_counter()
        code, _, err = run_main(capsys, "construct", "k2r", "--r", "32768")  # m = 32
        assert code == 3 and "ResourceLimit" in err
        code, _, err = run_main(capsys, "construct", "k2r", "--r", str(10**400))  # m = 2660
        assert code == 3 and "ResourceLimit" in err
        assert time.perf_counter() - start < 1.0

    def test_not_applicable(self, capsys, square_file):
        code, _, err = run_main(capsys, "check-thm1", square_file, "1,2")
        assert code == 1 and "NotApplicable" in err

    def test_no_partial_out_on_failure(self, capsys, square_file, tmp_path):
        target = tmp_path / "never.json"
        code, _, _ = run_main(
            capsys, "hh", square_file, "--max-m", "3", "--out", str(target)
        )
        assert code == 3
        assert not target.exists()
        assert not target.with_suffix(".json.tmp").exists()


class TestConstruct:
    def test_k2r_meta(self, capsys):
        code, out, _ = run_main(capsys, "construct", "k2r", "--r", "5")
        assert code == 0
        doc = json.loads(out)
        built = M.k2r_family(5)
        assert doc["m"] == built.complex.m
        assert doc["meta"]["non_edge"] == list(built.non_edge)
        assert complex_from_dict(doc) == built.complex

    def test_join_and_wedge(self, capsys, tmp_path, square):
        a = write_complex(tmp_path / "a.json", square)
        b = write_complex(tmp_path / "b.json", M.two_points())
        code, out, _ = run_main(capsys, "construct", "join", a, b)
        assert code == 0 and json.loads(out)["m"] == 6
        code, out, _ = run_main(
            capsys, "construct", "wedge", a, a, "--at-a", "1", "--at-b", "2"
        )
        assert code == 0 and json.loads(out)["m"] == 7

    def test_glue(self, capsys, tmp_path, square, square_diag):
        a = write_complex(tmp_path / "a.json", square)
        code, out, _ = run_main(capsys, "construct", "glue", a, "--face", "1,3")
        assert code == 0
        assert complex_from_dict(json.loads(out)) == square_diag
        # gluing a face whose boundary is absent is an input error
        code, _, _ = run_main(capsys, "construct", "glue", a, "--face", "1,2,3")
        assert code == 2


class TestCheckThm1:
    def test_square_diagonal(self, capsys, square_file):
        code, out, _ = run_main(capsys, "check-thm1", square_file, "1,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["witnessing_J"] == [1, 2, 3, 4]
        assert doc["predicted_delta"] == -2
        assert doc["rank_before"] == 4 and doc["rank_after"] == 2

    def test_case_two(self, capsys, tmp_path, case2_complex):
        path = write_complex(tmp_path / "c2.json", case2_complex)
        code, out, _ = run_main(capsys, "check-thm1", path, "1,2")
        doc = json.loads(out)
        assert code == 0 and doc["predicted_delta"] == 0
        assert doc["rows_after"] == {"-1": 1, "1": 1}


class TestLadder:
    def test_csv(self, capsys):
        code, out, _ = run_main(capsys, "ladder", "--r-max", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,m,rank,expected,pass"
        for r, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert fields[0] == str(r)
            assert fields[2] == fields[3] == str(2 * r)
            assert fields[4] == "true"

    def test_json(self, capsys):
        code, out, _ = run_main(capsys, "ladder", "--r-max", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert [row["rank"] for row in doc["rows"]] == [2, 4, 6]


class TestInstalledEntryPoint:
    def test_subprocess_byte_identical(self, capsys, square_file):
        outs = {run_main(capsys, "hh", square_file)[1].encode()}
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "machh.cli", "hh", square_file],
                capture_output=True,
                env=subprocess_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_concurrent_out_writes(self, capsys, square_file, tmp_path):
        # four runs race to replace one target: it ends up one whole document
        fields = ["q", "q", "gf:32003", "gf:32003"]
        expected = {run_main(capsys, "hh", square_file, "--field", f)[1] for f in fields}
        target = tmp_path / "same.json"
        argv = [sys.executable, "-m", "machh.cli", "hh", square_file, "--out", str(target)]
        procs = [subprocess.Popen(argv + ["--field", f], env=subprocess_env()) for f in fields]
        assert [proc.wait(timeout=60) for proc in procs] == [0] * 4
        assert len(expected) == 2 and target.read_text() in expected
        assert list(tmp_path.glob(".same.json.*.tmp")) == []

    def test_request_path_loads_no_oracle(self):
        code = "import sys, machh, machh.cli; print('machh.oracle' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=subprocess_env())
        assert (proc.returncode, proc.stdout) == (0, b"False\n"), proc.stderr

    def test_request_path_loads_no_start_up_weight(self):
        # -S reads no site .pth, so none can preload a module and hide its
        # import; the difference from the interpreter's own modules leaves out
        # any that the interpreter itself loads before machh
        heavy = ["dataclasses", "decimal", "fractions", "inspect", "pathlib"]
        code = (
            "import sys; before = set(sys.modules); import machh, machh.cli; "
            f"print(sorted(set({heavy!r}) & (sys.modules.keys() - before)))"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=subprocess_env())
        assert (proc.returncode, proc.stdout) == (0, b"[]\n"), (proc.stdout, proc.stderr)


# each spelling is one that ``int`` reads: an underscore, a sign or another
# script's digits (Arabic-Indic here), so each names a number the CLI refuses
NON_DECIMAL_ARGUMENTS = [
    ("field-underscore", ["hh", "{square}", "--field", "gf:3_1"]),
    ("field-arabic-indic", ["hh", "{square}", "--field", "gf:\u0663\u0661"]),
    ("sigma-sign", ["check-thm1", "{square}", "+1, 3"]),
    ("sigma-arabic-indic", ["check-thm1", "{square}", "1,\u0663"]),
    ("face-sign", ["construct", "glue", "{square}", "--face", "+1,3"]),
    ("r-underscore", ["construct", "k2r", "--r", "1_0"]),
    ("r-sign", ["construct", "k2r", "--r", "+3"]),
    ("r-max-arabic-indic", ["ladder", "--r-max", "\u0663"]),
    (
        "at-a-arabic-indic",
        ["construct", "wedge", "{square}", "{square}", "--at-a", "\u0662", "--at-b", "1"],
    ),
    ("at-b-sign", ["construct", "wedge", "{square}", "{square}", "--at-a", "2", "--at-b", "+1"]),
    ("max-m-underscore", ["hh", "{square}", "--max-m", "1_0"]),
]


class TestIntegerArguments:
    """Every integer the command line reads is ASCII decimal digits only."""

    @pytest.mark.parametrize(
        "argv", [a for _, a in NON_DECIMAL_ARGUMENTS], ids=[n for n, _ in NON_DECIMAL_ARGUMENTS]
    )
    def test_non_decimal_spelling_is_refused(self, capsys, tmp_path, square_file, argv):
        target = tmp_path / "out.json"
        argv = [a.format(square=square_file) for a in argv]
        code, out, err = run_main(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, ""), (argv, err)
        assert not target.exists(), argv

    def test_vertex_lists_keep_surrounding_spaces(self, capsys, square_file):
        code, out, _ = run_main(capsys, "check-thm1", square_file, " 1 , 3 ")
        assert code == 0 and json.loads(out)["sigma"] == [1, 3]

    def test_refusals_read_as_before(self, capsys, square_file):
        code, _, err = run_main(capsys, "construct", "k2r", "--r", "ten")
        assert code == 2 and err.endswith("argument --r: invalid int value: 'ten'\n"), err
        code, _, err = run_main(capsys, "hh", square_file, "--field", "gf:x")
        assert (code, err) == (2, "ParseError: bad field spec 'gf:x'\n")


def cyclic_garbage(argv: list) -> tuple[int, list]:
    """``main(argv)``'s exit code and the objects that only a collection of
    the cyclic collector would free after it."""
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        gc.collect()
        return code, list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


class TestPausedCollector:
    """``main`` pauses the cyclic collector for a request and restores the
    caller's setting on every exit, and a request leaves no machh object for
    the collector to free."""

    # (id, exit code, argv, callable of machh.cli that raises, or None)
    EXITS = [
        ("0", 0, ["hh", "{square}"], None),
        ("1", 1, ["check-thm1", "{square}", "1,2"], None),
        ("2-parse-error", 2, ["hh", "{absent}"], None),
        ("2-argparse", 2, ["hh", "{square}", "--format", "xml"], None),
        ("3-memory", 3, ["hh", "{square}"], ("hh_ranks", MemoryError())),
        ("5-bug", 5, ["h", "{square}"], ("h_ranks", InternalInconsistency("broken"))),
    ]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("code,argv,raising", [e[1:] for e in EXITS], ids=[e[0] for e in EXITS])
    def test_restores_the_callers_setting(
        self, capsys, tmp_path, square_file, monkeypatch, enabled, code, argv, raising
    ):
        during = []  # gc.isenabled() inside the request, where a patched callable saw it

        def seen(fn):
            def wrapper(*args, **kwargs):
                during.append(gc.isenabled())
                return fn(*args, **kwargs)

            return wrapper

        def fail(*args, **kwargs):
            raise raising[1]

        if raising:
            monkeypatch.setattr(f"machh.cli.{raising[0]}", seen(fail))
        else:
            monkeypatch.setattr("machh.cli.load_complex", seen(load_complex))
        argv = [a.format(square=square_file, absent=str(tmp_path / "absent.json")) for a in argv]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            got = main(argv)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert got == code
        assert after is enabled
        assert not any(during)  # paused while the request ran
        assert during or "--format" in argv  # only argparse refuses before any load

    @pytest.mark.parametrize(
        "argv",
        [
            ["hh", "{k2r}"],
            ["h", "{k2r}"],
            ["check-thm1", "{k2r}", "{sigma}"],
            ["ladder", "--r-max", "4"],
            ["construct", "k2r", "--r", "4"],
        ],
        ids=["hh", "h", "check-thm1", "ladder", "construct"],
    )
    def test_no_machh_object_is_cyclic_garbage(self, capsys, tmp_path, argv):
        built = M.k2r_family(4)
        k2r = write_complex(tmp_path / "k2r.json", built.complex)
        sigma = ",".join(map(str, built.non_edge))
        argv = [a.format(k2r=k2r, sigma=sigma) for a in argv] + ["--out", str(tmp_path / "out.json")]
        main(argv)  # first call builds the parser and warms module caches
        code, garbage = cyclic_garbage(argv)
        assert code == 0
        machh_objects = [o for o in garbage if type(o).__module__.startswith("machh")]
        assert machh_objects == [], machh_objects[:5]

    def test_cyclic_garbage_does_not_grow_with_the_input(self, capsys, tmp_path):
        counts = []
        for r in (4, 16):
            path = write_complex(tmp_path / f"k2r{r}.json", M.k2r_family(r).complex)
            argv = ["hh", path, "--out", str(tmp_path / "out.json")]
            main(argv)
            code, garbage = cyclic_garbage(argv)
            assert code == 0
            counts.append(len(garbage))
        assert counts[0] == counts[1] and counts[0] > 0, counts
