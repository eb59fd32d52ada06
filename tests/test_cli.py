import itertools
import json
import time

import pytest

import ghw._kernels
import ghw.enumerate
import ghw.graph
from ghw.cli import _parser, main
from ghw.core import MAX_DIM
from ghw.enumerate import CENSUS_MAX_DIM

DIDICOSM = "dim=3; gens=+--:HH0,-+-:0HH"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEnumerate:
    def test_dim_4_line_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--dim", "4")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 12
        for line in lines:
            obj = json.loads(line)
            assert obj["dim"] == 4

    def test_dim_2_content(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--dim", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["canonical_key"] == "02010200"
        assert obj["beta1"] == 1

    def test_long_mode_gate(self, capsys):
        code, _, err = run(capsys, "enumerate", "--dim", "6")
        assert code == 1
        assert "long mode" in err

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--dim", "7", "--long",
                           "--budget", "0.2")
        assert code == 2
        assert "budget exhausted" in err

    def test_budget_spent_between_dimensions_exits_2(self, capsys,
                                                     monkeypatch):
        # --budget bounds the census walk: a clock that passes it before
        # dim 6 starts exits 2, not 1 for a budget that is not positive.
        # Each read advances the clock a second: the deadline is set at
        # tick 0, dims 2-5 start at ticks 1-4 and dim 6 would at tick 5.
        ghw.enumerate.censuses(5)
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
        code, out, err = run(capsys, "table", "--max-dim", "6", "--long",
                             "--budget", "4.5")
        assert (code, out) == (2, "")
        assert err == "ghw: budget exhausted: no time left for dim 6\n"

    @pytest.mark.parametrize("command", ["table", "graph"])
    @pytest.mark.parametrize("budget, phase", [
        ("2.5", "for dim 4"), ("4.5", "after dim 5")])
    def test_budget_spent_in_cached_dimensions_exits_2(
            self, capsys, monkeypatch, command, budget, phase):
        # Dims 2-5 come from the memoized census, yet the clock is read
        # before each of them (ticks 1-4) and after the last (tick 5).
        ghw.enumerate.censuses(5)
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
        code, out, err = run(capsys, command, "--max-dim", "5",
                             "--budget", budget)
        assert (code, out) == (2, "")
        assert err == f"ghw: budget exhausted: no time left {phase}\n"

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "enumerate", "--dim", "9", "--long")
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--dim", str(CENSUS_MAX_DIM + 1), "--long"),
        ("table", "--max-dim", str(CENSUS_MAX_DIM + 1), "--long"),
        ("graph", "--max-dim", str(CENSUS_MAX_DIM + 1), "--long"),
    ])
    def test_census_cap(self, capsys, monkeypatch, argv):
        # A census past the cap runs out of memory; if the cap ever stops
        # holding, fail at the first census instead.
        def boom(*args, **kwargs):
            raise AssertionError("a census started past the census cap")

        monkeypatch.setattr(ghw._kernels, "census_leaves", boom)
        monkeypatch.setattr(ghw.enumerate, "cached_census", boom)
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1
        assert code == 1
        assert out == ""
        assert (f"dimension {CENSUS_MAX_DIM + 1} exceeds the census cap "
                f"{CENSUS_MAX_DIM}") in err


class TestTable:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--max-dim", "5")
        assert code == 0
        rows = json.loads(out)
        assert [r["total"] for r in rows] == [1, 3, 12, 123]
        assert [r["beta1_zero"] for r in rows] == [0, 1, 2, 23]


class TestBetti:
    def test_didicosm(self, capsys):
        code, out, _ = run(capsys, "betti", "--group", DIDICOSM)
        assert code == 0
        assert json.loads(out) == [1, 0, 0, 1]

    def test_stdin_fallback(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(DIDICOSM))
        code, out, _ = run(capsys, "betti")
        assert code == 0
        assert json.loads(out) == [1, 0, 0, 1]

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "betti", "--group", "dim=3; gens=junk")
        assert code == 1
        assert err.startswith("ghw: parse error:")


class TestGraphCmd:
    def test_writes_files(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        js = tmp_path / "g.json"
        code, out, _ = run(capsys, "graph", "--max-dim", "4",
                           "--dot", str(dot), "--json", str(js))
        assert code == 0
        summary = json.loads(out)
        assert summary == {"vertices": 16, "edges": 29, "connected": True}
        assert dot.read_text().startswith("graph ghw {")
        assert len(json.loads(js.read_text())) == 29

    def test_summary_only(self, capsys):
        code, out, _ = run(capsys, "graph", "--max-dim", "3")
        assert code == 0
        assert json.loads(out)["vertices"] == 4

    def test_budget_reaches_enumeration(self, capsys, monkeypatch):
        import ghw.enumerate as enum_mod

        real = enum_mod.enumerate_census
        budgets = {}

        def spy(n, **kwargs):
            budgets[n] = kwargs.get("budget")
            return real(n, **kwargs)

        # Dimension 4 takes the long-mode route, as dimension 6 does.
        monkeypatch.setattr(enum_mod, "LONG_MODE_DIM", 4)
        monkeypatch.setattr(enum_mod, "enumerate_census", spy)
        code, out, _ = run(capsys, "graph", "--max-dim", "4", "--long",
                           "--budget", "600")
        assert code == 0
        assert list(budgets) == [4]
        assert 0 < budgets[4] <= 600
        assert json.loads(out) == {"vertices": 16, "edges": 29,
                                   "connected": True}


class TestReduce:
    def test_didicosm_to_klein(self, capsys):
        code, out, _ = run(capsys, "reduce", "--group", DIDICOSM,
                           "--coordinate", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["key"] == "02010200"

    def test_functional_option(self, capsys):
        code, out, _ = run(capsys, "reduce", "--group", DIDICOSM,
                           "--coordinate", "2", "--functional", "1")
        assert code == 0
        assert json.loads(out)["key"] == "02010200"

    @pytest.mark.parametrize("functional", ["8", "9", "17", "1025"])
    def test_functional_outside_the_coordinates(self, capsys, functional):
        # Only 0..7 fit in 3 coordinates; 9 once read as 1 and exited 0.
        code, out, err = run(capsys, "reduce", "--group", DIDICOSM,
                             "--coordinate", "2", "--functional", functional)
        assert (code, out) == (1, "")
        assert err == (f"ghw: error: mask {int(functional):#x} does not fit "
                       "in 3 coordinates\n")

    def test_bad_choice(self, capsys):
        code, _, err = run(capsys, "reduce", "--group",
                           "dim=3; gens=-++:0H0,+-+:00H",
                           "--coordinate", "1")
        assert code == 1
        assert "ghw: error:" in err


class TestRealize:
    def test_family_klein(self, capsys):
        code, out, _ = run(capsys, "realize", "--family", "klein",
                           "--dim", "3")
        assert code == 0
        assert json.loads(out)["key"] == "03010a0600"

    def test_family_gamma(self, capsys):
        code, out, _ = run(capsys, "realize", "--family", "gamma",
                           "--dim", "3")
        assert code == 0
        assert json.loads(out)["key"] == "03030a0606"

    def test_flips(self, capsys):
        code, out, _ = run(capsys, "realize", "--flips", "6,5", "--dim", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "ghw"
        assert obj["key"] == "03030a0606"

    def test_low_rank_flips(self, capsys):
        code, out, _ = run(capsys, "realize", "--flips", "6", "--dim", "4")
        assert code == 0
        assert json.loads(out)["kind"] == "diagonal"

    def test_needs_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "realize", "--dim", "3")
        assert code == 1
        code, _, err = run(capsys, "realize", "--family", "klein",
                           "--flips", "6", "--dim", "3")
        assert code == 1


class TestConstructions:
    def test_embed_exist(self, capsys):
        code, out, _ = run(capsys, "embed-exist", "--group", DIDICOSM)
        assert code == 0
        obj = json.loads(out)
        assert obj["group"].startswith("dim=4;")

    def test_embed_mono(self, capsys):
        code, out, _ = run(capsys, "embed-mono", "--group", DIDICOSM)
        assert code == 0
        obj = json.loads(out)
        assert obj["normal"] is False
        assert obj["escaped_translation_doubled"][-1] == 4

    def test_embed_mono_rejects_klein(self, capsys):
        code, _, err = run(capsys, "embed-mono", "--group",
                           "dim=3; gens=-++:0H0,+-+:00H")
        assert code == 1

    def test_semidirect(self, capsys):
        code, out, _ = run(capsys, "semidirect", "--group", DIDICOSM)
        assert code == 0
        assert json.loads(out)["group"].startswith("dim=4;")

    def test_semidirect_rejects_nonorientable(self, capsys):
        code, _, err = run(capsys, "semidirect", "--group",
                           "dim=2; gens=-+:0H")
        assert code == 1
        assert "ghw: error:" in err

    def test_didicosm_witness(self, capsys):
        code, out, _ = run(capsys, "didicosm-witness", "--group", DIDICOSM)
        assert code == 0
        obj = json.loads(out)
        assert obj["first"] == "+--:HH0"
        assert obj["lattice_rank"] == 3

    def test_didicosm_witness_refuses_b1_one(self, capsys):
        # b1 = 1 (singleton support): exit 1 with the scope of the search,
        # whether or not the group has a didicosm subgroup; this one has.
        code, out, err = run(capsys, "didicosm-witness", "--group",
                             "dim=4; gens=+-++:HH00,++-+:H0HH,+++-:HHHH")
        assert (code, out) == (1, "")
        assert err == ("ghw: error: a singleton support gives no co-flip "
                       "pair; this search covers only groups with b1 = 0\n")

    def test_out_order(self, capsys):
        code, out, _ = run(capsys, "out-order", "--group", DIDICOSM)
        assert code == 0
        assert json.loads(out)["out_order"] == 96

    def test_isomorphic(self, capsys):
        code, out, _ = run(capsys, "isomorphic", "--group", DIDICOSM,
                           "--other", "dim=3; gens=+-+:HH0,++-:0H0")
        assert code == 0
        assert json.loads(out)["isomorphic"] is False


class TestExportsStreamed:
    # The commands write the export rows as they come; the bytes are
    # those of the library's whole-text exports.
    def test_graph_files(self, capsys, tmp_path):
        g = ghw.graph.build_graph(5)
        dot, js = tmp_path / "g.dot", tmp_path / "g.json"
        code, _, _ = run(capsys, "graph", "--max-dim", "5",
                         "--dot", str(dot), "--json", str(js))
        assert code == 0
        assert dot.read_bytes() == ghw.graph.dot_export(g).encode()
        assert js.read_bytes() == ghw.graph.edges_json(g).encode()

    def test_enumerate_out_and_stdout(self, capsys, tmp_path):
        want = ghw.enumerate.census_to_jsonl(ghw.enumerate.cached_census(4))
        out = tmp_path / "c.jsonl"
        assert run(capsys, "enumerate", "--dim", "4", "--out", str(out)) == (
            0, "", "")
        assert out.read_bytes() == want.encode()
        assert run(capsys, "enumerate", "--dim", "4") == (0, want, "")

    def test_no_edges(self, capsys, tmp_path):
        js = tmp_path / "g.json"
        code, _, _ = run(capsys, "graph", "--max-dim", "2", "--json", str(js))
        assert code == 0
        assert js.read_bytes() == b"[]\n"

    def test_no_whole_text(self, capsys, monkeypatch, tmp_path):
        want = {}
        for name in ("dot", "json"):
            path = tmp_path / f"before.{name}"
            run(capsys, "graph", "--max-dim", "4", f"--{name}", str(path))
            want[name] = path.read_bytes()
        census = run(capsys, "enumerate", "--dim", "4")

        def boom(*args, **kwargs):
            raise AssertionError("a command built a whole export text")

        monkeypatch.setattr(ghw.graph, "dot_export", boom)
        monkeypatch.setattr(ghw.graph, "edges_json", boom)
        monkeypatch.setattr(ghw.enumerate, "census_to_jsonl", boom)
        for name in ("dot", "json"):
            path = tmp_path / f"after.{name}"
            code, _, _ = run(capsys, "graph", "--max-dim", "4",
                             f"--{name}", str(path))
            assert code == 0
            assert path.read_bytes() == want[name]
        assert run(capsys, "enumerate", "--dim", "4") == census
        out = tmp_path / "after.jsonl"
        assert run(capsys, "enumerate", "--dim", "4", "--out", str(out))[0] == 0
        assert out.read_text() == census[1]


CENSUS_COMMANDS = [
    ("enumerate", "--dim", "3"),
    ("table", "--max-dim", "3"),
    ("graph", "--max-dim", "3"),
]


@pytest.mark.parametrize("argv", CENSUS_COMMANDS)
@pytest.mark.parametrize("limit", [("--budget", "-1"), ("--budget", "0"),
                                   ("--budget", "nan")])
def test_run_limits_rejected(capsys, argv, limit):
    code, out, err = run(capsys, *argv, *limit)
    assert code == 1
    assert out == ""
    assert err.startswith("ghw: error:")


@pytest.mark.parametrize("argv", CENSUS_COMMANDS)
def test_workers_flag_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv, "--workers", "2")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        "ghw: error: unrecognized arguments: --workers 2")


class TestOneParser:
    def test_built_once(self):
        assert _parser() is _parser()

    def test_calls_leak_no_state(self, capsys, monkeypatch):
        import ghw.constructions as constructions

        seen = []
        real = constructions.reduce

        def spy(p, functional, coordinate):
            seen.append(functional)
            return real(p, functional, coordinate)

        monkeypatch.setattr(constructions, "reduce", spy)
        with_f = ("reduce", "--group", DIDICOSM, "--coordinate", "2",
                  "--functional", "1")
        without = ("reduce", "--group", DIDICOSM, "--coordinate", "2")
        first = run(capsys, *with_f)
        second = run(capsys, *without)
        assert seen == [1, None]
        assert run(capsys, *with_f) == first
        assert run(capsys, *without) == second
        assert first[0] == second[0] == 0

    def test_help_lists_every_command(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        listed = out.split("positional arguments:")[1]
        for name in ("enumerate", "table", "betti", "graph", "reduce",
                     "realize", "embed-exist", "embed-mono", "semidirect",
                     "didicosm-witness", "out-order", "isomorphic"):
            assert f"    {name} " in listed


class TestDimensionCap:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # Past the cap these commands cost minutes and gigabytes; if the cap
        # ever stops them, fail at the first presentation or census instead.
        import ghw.core
        import ghw.enumerate

        def boom(*args, **kwargs):
            raise AssertionError("work started past the dimension cap")

        monkeypatch.setattr(ghw.core, "generator_functionals", boom)
        monkeypatch.setattr(ghw.enumerate, "cached_census", boom)
        monkeypatch.setattr(ghw.enumerate, "enumerate_census", boom)

    @pytest.mark.parametrize("argv", [
        ("realize", "--family", "klein", "--dim", str(MAX_DIM + 4)),
        ("realize", "--flips", "6,5", "--dim", str(MAX_DIM + 1)),
        ("enumerate", "--dim", str(MAX_DIM + 1)),
        ("table", "--max-dim", str(MAX_DIM + 1), "--long"),
        ("graph", "--max-dim", str(MAX_DIM + 1), "--long"),
        ("realize", "--family", "klein", "--dim", "1"),
    ])
    def test_flags_rejected_fast(self, capsys, argv):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1
        assert code == 1
        assert out == ""
        assert f"the cap is {MAX_DIM}" in err

    def test_literal_rejected_fast(self, capsys):
        n = 30
        gen = "-" + "+" * (n - 1) + ":" + "H" * n
        literal = f"dim={n}; gens=" + ",".join([gen] * (n - 1))
        t0 = time.monotonic()
        code, out, err = run(capsys, "betti", "--group", literal)
        assert time.monotonic() - t0 < 1
        assert code == 1
        assert out == ""
        assert f"cap {MAX_DIM}" in err


def test_dimension_at_the_cap_is_allowed(capsys):
    code, out, _ = run(capsys, "realize", "--family", "gamma",
                       "--dim", str(MAX_DIM))
    assert code == 0
    assert json.loads(out)["group"].startswith(f"dim={MAX_DIM};")


class TestIntegerFlags:
    # Integer flags read ASCII digits only, at most 18 significant ones,
    # like the integers of a group literal; --budget reads ASCII only,
    # with no surrounding space or underscore and at most 18 significant
    # digits.
    @pytest.mark.parametrize("argv,flag,why", [
        (("realize", "--dim", "\u0663", "--flips", "6,5"), "--dim", "ASCII"),
        (("realize", "--dim", "3", "--flips", "\u0666,\u0665"), "--flips",
         "ASCII"),
        (("realize", "--dim", "3", "--flips", "6,,5"), "--flips", "ASCII"),
        (("realize", "--dim", "3", "--flips", "6,5,"), "--flips", "ASCII"),
        (("realize", "--dim", "3", "--flips", " 6,5"), "--flips", "ASCII"),
        (("realize", "--dim", "3", "--flips", "6" * 5000 + ",5"), "--flips",
         "18 digits"),
        (("realize", "--dim", "3", "--flips", "6" * 400 + ",5"), "--flips",
         "18 digits"),
        (("realize", "--dim", "+3", "--family", "gamma"), "--dim", "ASCII"),
        (("reduce", "--group", DIDICOSM, "--coordinate", "\u0663"),
         "--coordinate", "ASCII"),
        (("reduce", "--group", DIDICOSM, "--coordinate", "2",
          "--functional", "1_0"), "--functional", "ASCII"),
        (("embed-exist", "--group", DIDICOSM, "--coordinate", "\u00b2"),
         "--coordinate", "ASCII"),
        (("table", "--max-dim", "\u0662"), "--max-dim", "ASCII"),
        (("table", "--max-dim", "3", "--budget", "\u0663"), "--budget",
         "ASCII"),
        (("table", "--max-dim", "3", "--budget", "9" * 5000), "--budget",
         "18 digits"),
        (("table", "--max-dim", "3", "--budget", " 3"), "--budget", "ASCII"),
        (("table", "--max-dim", "3", "--budget", "3\t"), "--budget", "ASCII"),
        (("table", "--max-dim", "3", "--budget", "1_0"), "--budget", "ASCII"),
    ])
    def test_refused(self, capsys, argv, flag, why):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        last = err.splitlines()[-1]
        assert f"argument {flag}: " in last and why in last
        assert len(last) < 100

    def test_budget_fraction_runs(self, capsys):
        code, out, _ = run(capsys, "table", "--max-dim", "3", "--budget", "2.5")
        assert code == 0
        assert [r["total"] for r in json.loads(out)] == [1, 3]

    def test_budget_exponent_runs(self, capsys):
        assert run(capsys, "table", "--max-dim", "3", "--budget", "1e3") == (
            run(capsys, "table", "--max-dim", "3"))

    def test_leading_zeros_read(self, capsys):
        padded = run(capsys, "realize", "--dim", "0" * 30 + "3",
                     "--flips", "06,0005")
        assert padded == run(capsys, "realize", "--dim", "3", "--flips", "6,5")
        assert padded[0] == 0


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "enumerate", "--dim", "two")
        assert code == 1
