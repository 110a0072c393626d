import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import h3cover
from h3cover import Hypergraph3, load_h3, loads_h3, dumps_h3, pattern, write_h3
from h3cover import cli
from h3cover.cli import CONSTRUCTIONS, main

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "f1_12.h3"
    code, stdout, _ = run(capsys, "construct", "f1", "--n", "12", "-o", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schema"] == 1
    assert payload["claims"]["min_codegree"] == 6
    assert out.exists()
    claims_path = tmp_path / "f1_12.claims.json"
    assert claims_path.exists()

    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--pattern", "K4")
    assert code == 0
    report = json.loads(stdout)
    assert report["ok"] is True


def test_verify_detects_tampering(tmp_path, capsys):
    out = tmp_path / "g.h3"
    run(capsys, "construct", "f1", "--n", "12", "-o", str(out))
    g = load_h3(out)
    claims = json.loads((tmp_path / "g.claims.json").read_text())
    parts = claims["partition"]["parts"]
    extra = (parts[0][0], parts[1][0], parts[2][0])
    tampered = Hypergraph3.from_triples(g.n, list(g.edges()) + [extra])
    out.write_text(dumps_h3(tampered))
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--pattern", "K4")
    assert code == 3
    report = json.loads(stdout)
    assert report["ok"] is False


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_every_construction_verifies_against_its_hint(tmp_path, capsys, name):
    base = tmp_path / "base.h3"
    write_h3(pattern("K4-").graph, base)
    option = CONSTRUCTIONS[name][0]
    # sts needs n === 1 or 3 mod 6
    size = {"n": "7" if name == "sts" else "11", "base": str(base)}[option]
    out = tmp_path / "g.h3"
    code, stdout, _ = run(capsys, "construct", name, f"--{option}", size, "-o", str(out))
    assert code == 0
    hint = json.loads(stdout)["claims"]["pattern_hint"] or "K4"
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--pattern", hint)
    assert code == 0, [c for c in json.loads(stdout)["checks"] if not c["pass"]]


def test_construct_sts_infeasible_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "sts", "--n", "8", "-o", str(tmp_path / "s.h3"))
    assert code == 2
    assert "1,3 mod 6" in err


def test_claims_sidecar_of_an_output_without_h3_suffix(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, stdout, _ = run(capsys, "construct", "f1", "--n", "9", "-o", str(out))
    assert code == 0
    assert json.loads(stdout)["claims_path"] == str(tmp_path / "g.txt.claims.json")
    assert (tmp_path / "g.txt.claims.json").exists()
    code, _, _ = run(capsys, "verify", "--in", str(out), "--pattern", "K4")
    assert code == 0


@pytest.mark.parametrize("name", ["f1", "sts"])
def test_construct_without_size_option_exits_2(tmp_path, capsys, name):
    code, stdout, err = run(capsys, "construct", name, "-o", str(tmp_path / "g.h3"))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "g.h3").exists()


@pytest.mark.parametrize("argv, error", [
    (["construct", "f1e", "--n", "11", "--case", "2p", "-o"], "h3cover: error: unrecognized arguments: --case 2p"),
    (["cover", "--pattern", "STS9", "--in"], "error: unknown pattern 'STS9'"),
    (["construct", "sts", "--t", "9", "-o"], "h3cover: error: unrecognized arguments: --t 9"),
    (["recover", "--delta", "1/429", "--apex", "0", "--in"], "h3cover: error: unrecognized arguments: --delta 1/429"),
])
def test_removed_spellings_exit_2(tmp_path, capsys, argv, error):
    # f1e's case is n mod 3 (case 2p is construct f1p), an STS pattern names its size after a colon,
    # sts is sized by --n like every family, and recover checks the one slack 1/429
    path = tmp_path / "g.h3"
    write_h3(pattern("K4-").graph, path)
    code, stdout, err = _outcome(capsys, lambda: main([*argv, str(path)]))
    assert code in (2, ("exit", 2)) and stdout == "" and "Traceback" not in err
    # argparse puts its usage line before the error line
    assert err.splitlines()[-1] == error and err.count("error: ") == 1
    assert load_h3(path) == pattern("K4-").graph


@pytest.mark.parametrize("text", ["n:\n", "n: \n0\n", "n: 4 5\n0\n"])
def test_verify_a_hex_header_without_one_count_exits_2(tmp_path, capsys, text):
    path = tmp_path / "g.h3"
    path.write_text(text)
    code, stdout, err = _outcome(capsys, lambda: main(["verify", "--in", str(path), "--pattern", "K4"]))
    assert code == 2 and stdout == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and "bad header line" in err


def test_missing_input_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "cover", "--in", str(tmp_path / "nope.h3"), "--pattern", "K4")
    assert code == 1


@pytest.mark.parametrize("name", ["nope.h3.gz", "nope.bz2", "nope.xz", "nope.lzma", "."])
def test_missing_or_unreadable_input_exits_1(tmp_path, capsys, name):
    # the reader opens the file before numpy sees its name, whatever the suffix
    code, out, err = run(capsys, "verify", "--in", str(tmp_path / name), "--pattern", "K4")
    assert (code, out) == (1, "") and err.startswith("i/o error: ")


def test_cover_f1(tmp_path, capsys):
    out = tmp_path / "f1_9.h3"
    run(capsys, "construct", "f1", "--n", "9", "-o", str(out))
    code, stdout, _ = run(capsys, "cover", "--in", str(out), "--pattern", "K4")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["uncovered"] == [8]


def test_search_small(capsys):
    code, stdout, _ = run(capsys, "search", "--pattern", "K4", "--n", "4")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] == 1
    assert payload["exhaustive"] is True
    val, bits = oracles.c2_brute(pattern("K4"), 4, Hypergraph3)
    assert payload["graphs_scanned"] == oracles.search_nodes(pattern("K4"), 4, val, bits) == 9
    assert set(payload) == {
        "schema", "command", "pattern", "n", "value", "exhaustive", "graphs_scanned",
        "witness", "uncovered_vertex", "note",
    }


def test_search_budget_exit_code(capsys):
    # C5 at n = 8 takes about 40 s, so 0.05 s truncates it
    code, stdout, _ = run(
        capsys, "search", "--pattern", "C5", "--n", "8", "--budget-seconds", "0.05"
    )
    assert code == 4
    payload = json.loads(stdout)
    assert payload["exhaustive"] is False


def test_truncated_search_json_is_deterministic(capsys):
    # a zero budget stops before the first node, 0.05 s after a host-dependent number of them
    outputs = []
    for budget in ("0", "0.05"):
        code, stdout, _ = run(capsys, "search", "--pattern", "C5", "--n", "8", "--budget-seconds", budget)
        assert code == 4
        outputs.append(stdout)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["graphs_scanned"] is None and payload["value"] is None
    assert "target" not in payload["note"]


@pytest.mark.parametrize("value", ["60", "60.", ".5"])
def test_search_budget_takes_ascii_decimals(capsys, value):
    # "0" and "0.05" are the truncated searches above
    code, stdout, _ = run(capsys, "search", "--pattern", "K4", "--n", "5", "--budget-seconds", value)
    assert code == 0 and json.loads(stdout)["exhaustive"] is True


@pytest.mark.parametrize("value", ["\u0665", "1_0", " 1", "+1", "-1", "1e1", "inf", "nan", "", ".", "1.2.3", "0x1"])
def test_search_budget_takes_only_ascii_decimals(capsys, value):
    # float() would read all but the last four: a sign, '_', spaces, exponents and non-ASCII digits
    code, stdout, err = _outcome(
        capsys, lambda: main(["search", "--pattern", "K4", "--n", "5", "--budget-seconds", value]))
    assert code in (2, ("exit", 2)) and stdout == "" and "Traceback" not in err
    assert "error: " in err.splitlines()[-1] and err.count("error: ") == 1


def test_bounds_table(capsys):
    code, stdout, _ = run(capsys, "bounds", "--pattern", "K4-", "--n", "7..18")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert len(rows) == 12
    by_n = {r["n"]: r for r in rows}
    # residue table: 6m+r with exactness at r in {1,2,5}
    assert by_n[13]["exact"] == 4 and by_n[14]["exact"] == 4 and by_n[17]["exact"] == 5
    assert by_n[12]["exact"] is None and by_n[12]["lower"] == 3 and by_n[12]["upper"] == 4
    assert by_n[18]["lower"] == 5 and by_n[18]["upper"] == 6


def test_bounds_empty_range_exits_2(capsys):
    code, stdout, err = run(capsys, "bounds", "--pattern", "K4", "--n", "9..5")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["5..", "..5"])
def test_bounds_empty_end_exits_2(capsys, n):
    code, stdout, err = run(capsys, "bounds", "--pattern", "K4", "--n", n)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(n) in err
    assert "invalid literal" not in err


# every integer option, and both ends of the bounds range; {} is the value under test
COUNT_OPTIONS = [
    ["construct", "f1", "--n", "{}"],
    ["construct", "f1e", "--n", "9", "--seed", "{}"],
    ["construct", "blowup", "--base", "base.h3", "--factor", "{}"],
    ["search", "--pattern", "K4", "--n", "{}"],
    ["recover", "--in", "base.h3", "--apex", "{}"],
    ["bounds", "--pattern", "K4", "--n", "{}"],
    ["bounds", "--pattern", "K4", "--n", "{}..9"],
    ["bounds", "--pattern", "K4", "--n", "5..{}"],
]


@pytest.mark.parametrize("value", ["\u0665", "+5", "1_0", "-1"])
@pytest.mark.parametrize("argv", COUNT_OPTIONS, ids=" ".join)
def test_count_options_take_only_ascii_digits(tmp_path, capsys, monkeypatch, argv, value):
    # int() would read each of these values: a sign, '_' and a non-ASCII digit
    monkeypatch.chdir(tmp_path)
    write_h3(pattern("K4-").graph, "base.h3")
    argv = [a.replace("{}", value) for a in argv]
    if argv[0] == "construct":
        argv += ["-o", "g.h3"]
    code, stdout, err = _outcome(capsys, lambda: main(argv))
    assert code in (2, ("exit", 2)) and stdout == "" and "Traceback" not in err
    assert "error: " in err.splitlines()[-1] and err.count("error: ") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.h3"]


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 9.92 GiB")])
def test_construct_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, exc):
    # an oversize --n fails in numpy's allocator; stand in for it without allocating
    def make(args):
        raise exc

    monkeypatch.setitem(CONSTRUCTIONS, "f1", ("n", make))
    code, stdout, err = run(capsys, "construct", "f1", "--n", "2000", "-o", str(tmp_path / "g.h3"))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("name", [name for name, (size, _) in CONSTRUCTIONS.items() if size == "n"])
def test_construct_oversize_n_exits_2_at_once(tmp_path, name):
    # a child process capped at 1 GiB of address space, so a program that starts
    # O(n) work cannot exhaust the machine running the suite
    env = {**os.environ, "PYTHONPATH": str(Path(h3cover.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    # a size far beyond memory (sts needs n === 1 or 3 mod 6, or it is refused before any allocation)
    size = "99999999" if name == "sts" else "100000000"
    proc = subprocess.run(
        [sys.executable, "-m", "h3cover.cli", "construct", name, "--n", size, "-o", str(tmp_path / "g.h3")],
        capture_output=True, text=True, timeout=20, env=env, preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    # refused for the size of its rank table or edge bitmap, not after Python lists filled the cap
    assert "out of memory" not in proc.stderr


def test_f1e_commands_at_n_300_stay_in_bounded_memory():
    # each command in a new process started by a small script, its peak resident set from wait4:
    # 39 MB for construct (the edge flags and the bitmap) and 67 MB for verify, cover and recover
    # (the edge array and the pair table's flags), with about 30 MB of that the interpreter and
    # numpy; 106 and 138 MB when each layer built arrays of one entry per edge at once
    env = {**os.environ, "PYTHONPATH": str(Path(h3cover.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("peak_rss.py")), "300", "60", "100"],
                          capture_output=True, text=True, timeout=300, env=env)
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["command"] for r in runs] == ["construct", "verify", "cover", "recover"]
    assert proc.returncode == 0 and all(r["exit"] == 0 and r["peak_rss_mb"] < r["bound_mb"] for r in runs), runs


def test_recover_roundtrip(tmp_path, capsys):
    out = tmp_path / "f1_15.h3"
    run(capsys, "construct", "f1", "--n", "15", "-o", str(out))
    code, stdout, _ = run(capsys, "recover", "--in", str(out), "--apex", "14")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["found"] is True
    assert payload["violations"]["within_part_link"] == 0
    assert sorted(map(len, payload["parts"])) == [4, 5, 5]


def test_byte_identical_reruns(tmp_path, capsys):
    args = ("construct", "f1e", "--n", "12", "--seed", "5", "-o", str(tmp_path / "a.h3"))
    _, first, _ = run(capsys, *args)
    bytes_a = (tmp_path / "a.h3").read_bytes()
    _, second, _ = run(capsys, *args)
    bytes_b = (tmp_path / "a.h3").read_bytes()
    assert first == second
    assert bytes_a == bytes_b

    _, s1, _ = run(capsys, "search", "--pattern", "K4", "--n", "5")
    _, s2, _ = run(capsys, "search", "--pattern", "K4", "--n", "5")
    assert s1 == s2


def test_hex_output_roundtrips(tmp_path, capsys):
    out = tmp_path / "f3.h3"
    code, _, _ = run(capsys, "construct", "f3", "--n", "9", "-o", str(out), "--fmt", "hex")
    assert code == 0
    text = out.read_text()
    assert text.startswith("n: 9")
    from h3cover import f3

    assert loads_h3(text) == f3(9)[0]


def test_blowup_via_cli(tmp_path, capsys):
    base = tmp_path / "base.h3"
    from h3cover import pattern, write_h3

    write_h3(pattern("K4-").graph, base)
    out = tmp_path / "blown.h3"
    code, stdout, _ = run(
        capsys, "construct", "blowup", "--base", str(base), "--factor", "2", "-o", str(out)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["claims"]["min_codegree"] == 5
    assert payload["claims"]["pattern_hint"] == "K5"
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--pattern", "K5")
    assert code == 0


def test_table_format_runs(tmp_path, capsys):
    code, stdout, _ = run(capsys, "bounds", "--pattern", "C5", "--n", "5..8", "--format", "table")
    assert code == 0
    assert "lower" in stdout


def test_duplicate_edge_line_exits_2(tmp_path, capsys):
    dup = tmp_path / "dup.h3"
    dup.write_text("12 2\n0 1 2\n0 1 2\n")
    code, stdout, err = run(capsys, "cover", "--in", str(dup), "--pattern", "K4")
    assert code == 2
    assert stdout == ""
    assert "0 1 2 is listed twice" in err


def _claims_without(tmp_path, capsys, mutate):
    out = tmp_path / "f1_9.h3"
    run(capsys, "construct", "f1", "--n", "9", "-o", str(out))
    sidecar = tmp_path / "f1_9.claims.json"
    claims = json.loads(sidecar.read_text())
    mutate(claims)
    sidecar.write_text(json.dumps(claims))
    return run(capsys, "verify", "--in", str(out), "--pattern", "K4")


def test_verify_claims_missing_field_exits_2(tmp_path, capsys):
    code, stdout, err = _claims_without(tmp_path, capsys, lambda c: c.pop("partition"))
    assert code == 2
    assert stdout == ""
    assert err.strip() == "error: claims: missing field 'partition'"


def test_verify_claims_ill_typed_field_exits_2(tmp_path, capsys):
    code, _, err = _claims_without(
        tmp_path, capsys, lambda c: c["partition"].update(parts=[[0, "1"]])
    )
    assert code == 2
    assert "'partition.parts' must be a list of integer lists" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_out_of_range_uncovered_claim_fails_the_check(tmp_path, capsys):
    code, stdout, err = _claims_without(tmp_path, capsys, lambda c: c.update(uncovered=[8, 500, -1]))
    assert code == 3
    assert err == ""
    checks = {c["name"]: c for c in json.loads(stdout)["checks"]}
    assert checks["uncovered:8"]["pass"] is True
    for v in (500, -1):
        assert checks[f"uncovered:{v}"]["measured"] == "out of range"
        assert checks[f"uncovered:{v}"]["pass"] is False


def test_verify_out_of_range_apex_fails_the_partition_check(tmp_path, capsys):
    code, stdout, _ = _claims_without(tmp_path, capsys, lambda c: c["partition"].update(apex=500))
    assert code == 3
    checks = {c["name"]: c for c in json.loads(stdout)["checks"]}
    assert checks["partition"]["measured"] == "invalid"


def _claims_copied(tmp_path, capsys):
    """f1(12) written with its sidecar, and the claims copied to a path that is not the sidecar's."""
    out = tmp_path / "f1_12.h3"
    run(capsys, "construct", "f1", "--n", "12", "-o", str(out))
    copy = tmp_path / "elsewhere" / "mine.json"
    copy.parent.mkdir()
    claims = json.loads((tmp_path / "f1_12.claims.json").read_text())
    copy.write_text(json.dumps(claims))
    return out, claims, copy


def test_verify_reads_the_claims_path_given(tmp_path, capsys):
    out, _, copy = _claims_copied(tmp_path, capsys)
    (tmp_path / "f1_12.claims.json").unlink()
    code, stdout, err = run(capsys, "verify", "--in", str(out), "--pattern", "K4", "--claims", str(copy))
    assert code == 0 and json.loads(stdout)["ok"] is True and err == ""


def test_verify_fails_a_raised_codegree_claim_at_the_path_given(tmp_path, capsys):
    out, claims, copy = _claims_copied(tmp_path, capsys)
    copy.write_text(json.dumps(claims | {"min_codegree": claims["min_codegree"] + 1}))
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--pattern", "K4", "--claims", str(copy))
    checks = {c["name"]: c for c in json.loads(stdout)["checks"]}
    assert code == 3 and checks.pop("min_codegree") == {"name": "min_codegree", "expected": 7, "measured": 6,
                                                         "pass": False}
    assert checks and all(c["pass"] for c in checks.values())


def test_verify_with_a_missing_claims_path_exits_1(tmp_path, capsys):
    # the sidecar at the default path is there, and is not read in place of the one named
    out, _, _ = _claims_copied(tmp_path, capsys)
    missing = tmp_path / "elsewhere" / "missing.json"
    code, stdout, err = run(capsys, "verify", "--in", str(out), "--pattern", "K4", "--claims", str(missing))
    assert code == 1 and stdout == ""
    assert err == f"i/o error: [Errno 2] No such file or directory: '{missing}'\n"


# the invocation classes whose help, usage error or result the full parser tree decides
USAGE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["nope"],
    ["Search", "--pattern", "K4", "--n", "4"],
    ["search"],
    ["search", "--pattern", "K4"],
    ["search", "--pattern", "K4", "--n", "x"],
    ["search", "--pattern", "K4", "--n", "4", "--bogus"],
    ["search", "--bogus", "-h"],
    ["search", "--n", "x", "--bogus"],
    ["search", "--pattern", "K4", "--n", "4", "extra"],
    ["search", "--pat", "K4", "--n", "4"],
    ["search", "--pattern", "K4", "--n", "4", "--"],
    ["search", "--", "--pattern", "K4", "--n", "4"],
    ["search", "--pattern", "K4", "--n", "4", "--format", "xml"],
    ["--format", "json", "search", "--pattern", "K4", "--n", "4"],
    ["construct", "zz"],
    ["construct", "f1", "f2", "--n", "5"],
    ["bounds", "--pattern", "K4", "--n", "7..9", "x", "y"],
    ["recover", "--in", "x.h3", "--apex", "q"],
] + [[name, "-h"] for name in ("construct", "verify", "cover", "search", "bounds", "recover")]


def _outcome(capsys, call):
    """(return value or SystemExit code, stdout, stderr) of call()."""
    try:
        code = call()
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def _full_tree(argv):
    args = cli._build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_output_matches_full_parser(capsys, argv):
    got = _outcome(capsys, lambda: main(list(argv)))
    assert got == _outcome(capsys, lambda: _full_tree(list(argv)))


@pytest.mark.parametrize("argv", [["search", "--pattern", "K4", "--n", "x"], ["search", "--pattern", "K4", "--n", "4"]])
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["h3cover", *argv])
    assert _outcome(capsys, main) == _outcome(capsys, lambda: _full_tree(argv))


def test_one_command_builds_only_its_own_options(capsys, monkeypatch):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    code, _, _ = run(capsys, "search", "--pattern", "K4", "--n", "4")
    assert code == 0
    # -h, --format, --pattern, --n and --budget-seconds; the whole tree adds 32
    assert len(calls) <= 5, calls
