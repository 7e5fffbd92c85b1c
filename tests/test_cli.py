"""CLI behavior: subcommands, formats, exit codes, determinism."""

import concurrent.futures
import gc
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import srbetti
import srbetti.betti
import srbetti.bounds
import srbetti.cli
import srbetti.tor
from srbetti.cli import main
from srbetti.complexes import complex_from_json, from_facets, mask_of
from srbetti.corpus import random_complex
from srbetti.errors import StabilizationNotReached, VertexBudgetExceeded

SQUARE = "m 4\nfacet 1 2\nfacet 2 3\nfacet 3 4\nfacet 1 4\n"


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.cplx"
    path.write_text(SQUARE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_json(square_file, capsys):
    code, out, _ = run(capsys, "betti", "--in", square_file, "--field", "q")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 4
    assert payload["total"] == 4
    assert payload["entries"][0] == {"i": 0, "omega": [], "beta": 1}


def test_betti_roundtrips_complex(square_file, capsys):
    code, out, _ = run(capsys, "betti", "--in", square_file)
    payload = json.loads(out)
    K = complex_from_json(payload["complex"])
    assert K == from_facets(4, [mask_of(e) for e in [(1, 2), (2, 3), (3, 4), (1, 4)]])


def test_zk_text(square_file, capsys):
    code, out, _ = run(capsys, "zk", "--in", square_file, "--format", "text")
    assert code == 0
    assert out.splitlines() == ["q=0 dim=1", "q=3 dim=2", "q=6 dim=1"]


def test_color_minimum(square_file, capsys):
    code, out, _ = run(capsys, "color", "--in", square_file, "--minimum", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "blocks 1 3 | 2 4"
    assert lines[1] == "r 2"


def test_color_degenerate_blocks_exit_1(square_file, capsys):
    code, out, _ = run(capsys, "color", "--in", square_file, "--blocks", "1 2 | 3 4")
    assert code == 1
    assert json.loads(out)["nondegenerate"] is False


def test_quotient(square_file, capsys):
    code, out, _ = run(capsys, "quotient", "--in", square_file, "--blocks", "1 3 | 2 4")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [{"q": 0, "dim": 1}, {"q": 2, "dim": 2}, {"q": 4, "dim": 1}]


def test_tor(square_file, capsys):
    code, out, _ = run(capsys, "tor", "--in", square_file, "--blocks", "1 3 | 2 4")
    assert code == 0
    payload = json.loads(out)
    assert {tuple(e["L"]): e["dim"] for e in payload["entries"]} == {
        (): 1,
        (1,): 1,
        (2,): 1,
        (1, 2): 1,
    }
    assert all(s["stabilized"] for s in payload["stabilized"])


def test_tor_low_bound_warns_but_exits_zero(square_file, capsys):
    with pytest.warns(StabilizationNotReached) as record:
        code, out, err = run(
            capsys, "tor", "--in", square_file, "--blocks", "1 3 | 2 4", "--weight-bound", "1"
        )
    assert code == 0
    (warning,) = record  # one warning, and it names the L that did not stabilize
    assert "for L in [[], [1], [2], [1, 2]]" in str(warning.message)
    assert err == ""  # recorded, and the CLI adds no line of its own
    payload = json.loads(out)
    assert not all(s["stabilized"] for s in payload["stabilized"])


def test_blocks_is_inline_even_when_a_file_has_that_name(
    square_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1 3 | 2 4").write_text("blocks 1 2 | 3 4\n")  # a degenerate coloring
    code, out, _ = run(capsys, "color", "--in", square_file, "--blocks", "1 3 | 2 4")
    assert code == 0
    assert json.loads(out)["source"] == "inline"
    assert json.loads(out)["blocks"] == "blocks 1 3 | 2 4"
    code, out, _ = run(capsys, "color", "--in", square_file, "--blocks-file", "1 3 | 2 4")
    assert code == 1
    assert json.loads(out)["source"] == "file"
    assert json.loads(out)["blocks"] == "blocks 1 2 | 3 4"
    code, _, err = run(capsys, "color", "--in", square_file, "--blocks-file", "no such file")
    assert code == 2
    assert "FileNotFoundError" in err


def test_verify_pass(square_file, capsys):
    code, out, _ = run(
        capsys, "verify", "--in", square_file, "--blocks", "1 3 | 2 4", "--field", "f2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["threeway"]["pass"] is True
    assert all(r["verdict"] == "pass" for r in payload["bounds"].values())


def test_verify_greedy_default(square_file, capsys):
    code, out, _ = run(capsys, "verify", "--in", square_file)
    assert code == 0
    assert json.loads(out)["blocks"] == "blocks 1 3 | 2 4"


def test_sharp(capsys):
    code, out, _ = run(capsys, "sharp", "--dims", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["rows"][0]["lhs"] == 4


def test_inline_facets(capsys):
    code, out, _ = run(capsys, "betti", "--facets", "1 2, 2 3, 3 4, 1 4")
    assert code == 0
    assert json.loads(out)["total"] == 4


def test_isolated_vertex_error_and_flag(capsys):
    code, _, err = run(capsys, "betti", "--facets", "1 2", "--m", "3")
    assert code == 2
    assert "IsolatedVertexMissing" in err
    code2, out, _ = run(capsys, "betti", "--facets", "1 2", "--m", "3", "--allow-isolated")
    assert code2 == 0


def test_usage_error_exit_2(square_file):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--in", square_file, "--greedy"])  # unknown flag for betti
    assert exc.value.code == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "betti", "--in", "/nonexistent/file.cplx")
    assert code == 2


def test_bad_field(capsys):
    code, _, err = run(capsys, "betti", "--facets", "1 2", "--field", "f6")
    assert code == 2
    for zero in ("f0", "fp:0", "f00", "fp:-0"):  # not ℚ: a prime field's selector names a prime
        code, out, err = run(capsys, "betti", "--facets", "1 2", "--field", zero)
        assert (code, out, err) == (2, "", "error: ValueError: not a prime below 2^16: 0\n")
    for tail in ("abc", "", "2.0"):  # not Python's int() message
        code, out, err = run(capsys, "betti", "--facets", "1 2", "--field", f"fp:{tail}")
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: unknown field selector: 'fp:{tail}'\n"


def test_a_malformed_integer_names_its_flag_and_text(square_file, tmp_path, capsys):
    code, out, err = run(capsys, "betti", "--facets", "1 2, 1 a")
    assert (code, out, err) == (2, "", "error: ValueError: --facets: malformed facet '1 a'\n")
    blocks = tmp_path / "blocks"
    blocks.write_text("1 | x")
    for flag, spec in (("--blocks", "1 | x"), ("--blocks-file", str(blocks))):
        code, out, err = run(capsys, "color", "--in", square_file, flag, spec)
        assert (code, out, err) == (2, "", "error: ValueError: malformed block 'x' in '1 | x'\n")


@pytest.mark.parametrize(
    "argv",
    [["color", "--facets", "1 2, 2 3"], ["corpus", "--seed", "1", "--count", "1"]],
)
def test_field_is_refused_where_it_is_never_read(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--field", "bogus"])
    assert exc.value.code == 2


_EVERY = {"betti", "zk", "color", "quotient", "tor", "verify", "sharp", "corpus"}
_READS_K = _EVERY - {"sharp", "corpus"}
_PARTITIONED = {"color", "quotient", "tor", "verify"}
_OPTIONS = {  # option string -> the commands that take it, as the README lists them
    **dict.fromkeys(["-h", "--help", "--format", "--max-m"], _EVERY),
    **dict.fromkeys(["--in", "--facets", "--m", "--allow-isolated"], _READS_K),
    **dict.fromkeys(
        ["--blocks", "--blocks-file", "--greedy", "--minimum", "--trivial"], _PARTITIONED
    ),
    "--field": {"betti", "zk", "quotient", "tor", "verify", "sharp"},
    "--weight-bound": {"tor", "verify", "corpus"},
    "--dims": {"sharp"},
    **dict.fromkeys(["--seed", "--count", "--corpus-max-m", "--density", "--jobs"], {"corpus"}),
}


@pytest.mark.parametrize("option", _OPTIONS)
def test_each_option_is_taken_by_its_commands_only(option):
    (sub,) = (a for a in srbetti.cli.build_parser()._actions if a.choices and a.dest == "command")
    taken = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    assert set(taken) == _EVERY
    assert set().union(*taken.values()) == set(_OPTIONS)  # no option goes unpinned
    assert {name for name, options in taken.items() if option in options} == _OPTIONS[option]


def test_a_json_run_renders_no_text(square_file, capsys, monkeypatch):
    # the text view is built only under --format text: with every renderer
    # that the JSON runs of verify, sharp and tor would reach made to raise,
    # they still succeed
    def refuse(*_):
        raise RuntimeError("text rendered for a JSON run")

    monkeypatch.setattr(srbetti.bounds.BoundReport, "to_text", refuse)
    monkeypatch.setattr(srbetti.cli, "vertices_of", refuse)
    square = ["--in", square_file]
    for argv in (["verify", *square], ["sharp", "--dims", "1", "2"], ["tor", *square]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)
        with pytest.raises(RuntimeError, match="text rendered"):
            main([*argv, "--format", "text"])


def test_a_failed_contraction_certificate_exits_1(square_file, capsys, monkeypatch):
    # mutation check: a homotopy that drops its term at the shape ({1}, {2}),
    # whose smallest piece is w = (2, 1)
    good = srbetti.tor._homotopy

    def lossy(i, sigma, imask):
        return [] if (sigma, imask) == (mask_of([1]), 0b10) else good(i, sigma, imask)

    monkeypatch.setattr(srbetti.tor, "_homotopy", lossy)
    srbetti.reduced_cohomology_dims.cache_clear()  # the count of an earlier run is kept
    try:
        code, out, err = run(capsys, "tor", "--in", square_file, "--blocks", "1 3 | 2 4")
    finally:
        srbetti.reduced_cohomology_dims.cache_clear()
    assert (code, out) == (1, "")
    assert err.startswith("error: NotAComplex: contraction certificate fails at ")
    assert err.endswith("; piece w=(2, 1)\n")


def test_corpus_deterministic(capsys):
    args = ["corpus", "--seed", "11", "--count", "2", "--corpus-max-m", "5"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["pass"] is True
    assert len(payload["members"]) == 2
    assert set(payload["members"][0]["fields"]) == {"q", "f2", "f3"}


def test_corpus_parallel_matches_serial(capsys):
    args = ["corpus", "--seed", "3", "--count", "2", "--corpus-max-m", "5"]
    _, serial, _ = run(capsys, *args)
    _, parallel, _ = run(capsys, *args, "--jobs", "2")
    assert serial == parallel


class SerialPool:
    """Stands in for ProcessPoolExecutor: records the workers asked for in
    ``asked`` and maps serially, so no process starts."""

    asked: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def serial_pool(monkeypatch):
    monkeypatch.setattr(SerialPool, "asked", [])
    # _cmd_corpus imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return SerialPool.asked


def test_corpus_starts_no_more_workers_than_members(capsys, monkeypatch, serial_pool):
    # the pool forks all its workers at the first submit: --jobs 64 on two
    # members and eight CPUs must ask for two
    monkeypatch.setattr(srbetti.cli.os, "cpu_count", lambda: 8)
    args = ["corpus", "--seed", "3", "--count", "2", "--corpus-max-m", "5"]
    _, serial, _ = run(capsys, *args)
    code, pooled, _ = run(capsys, *args, "--jobs", "64")
    assert (code, serial_pool, pooled) == (0, [2], serial)
    assert run(capsys, "corpus", "--seed", "3", "--count", "1", "--jobs", "64")[0] == 0
    assert serial_pool == [2]  # one member runs in this process


def test_corpus_starts_no_more_workers_than_cpus(capsys, monkeypatch, serial_pool):
    # --jobs 500 on four members and two CPUs asks for two workers
    monkeypatch.setattr(srbetti.cli.os, "cpu_count", lambda: 2)
    args = ["corpus", "--seed", "3", "--count", "4", "--corpus-max-m", "4"]
    _, serial, _ = run(capsys, *args)
    code, pooled, _ = run(capsys, *args, "--jobs", "500")
    assert (code, serial_pool, pooled) == (0, [2], serial)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_jobs_below_1_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, "corpus", "--seed", "1", "--count", "2", "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("count", ["0", "-2"])
def test_corpus_count_below_1_is_a_usage_error(capsys, count):
    # a corpus of no member checks nothing, so it must not report a pass
    code, out, err = run(capsys, "corpus", "--seed", "1", "--count", count)
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: --count must be at least 1, got {count}\n"


def test_corpus_max_m_below_4_is_a_usage_error(capsys):
    code, out, err = run(capsys, "corpus", "--seed", "1", "--count", "2", "--corpus-max-m", "3")
    assert (code, out) == (2, "")
    assert err == "error: ValueError: --corpus-max-m must be at least 4, got 3\n"


def test_a_failed_check_exits_1(capsys, monkeypatch):
    # mutation checks: a Betti table that lost an entry makes zk's two routes
    # disagree, and a flipped quotient sign breaks d∘d in quotient, which
    # builds the blocks alone, while verify finds the L = {1} block differ
    # from its Koszul piece first; all are failed checks, not usage errors
    table = srbetti.betti.betti_table

    def dropping(K, f):
        out = table(K, f)
        out.entries.popitem()
        return out

    coboundary = srbetti.tor.quotient_coboundary

    def flipped(ctx, cell):
        out = coboundary(ctx, cell)
        if cell[0] == 0 and out:
            (sign, target), *rest = out
            out = [(-sign, target), *rest]
        return out

    square = ["--facets", "1 2, 2 3, 3 4, 1 4"]
    with monkeypatch.context() as patch:
        patch.setattr(srbetti.betti, "betti_table", dropping)
        code, out, err = run(capsys, "zk", *square)
    assert (code, out) == (1, "")
    assert err.startswith("error: MismatchFound: moment-angle routes disagree")
    for command, error in (
        ("quotient", "error: NotAComplex: d∘d != 0"),
        ("verify", "error: MismatchFound: e = 0 piece and quotient block differ at q=1, L=(1,)"),
    ):
        srbetti.reduced_cohomology_dims.cache_clear()  # the blocks of earlier runs
        with monkeypatch.context() as patch:
            patch.setattr(srbetti.tor, "quotient_coboundary", flipped)
            code, out, err = run(capsys, command, *square)
        srbetti.reduced_cohomology_dims.cache_clear()
        assert (code, out) == (1, "")
        assert err.startswith(error)


def test_corpus_lists_the_unstabilized_L_per_field(capsys):
    args = ["corpus", "--seed", "11", "--count", "2", "--corpus-max-m", "5"]
    with pytest.warns(StabilizationNotReached):
        code, out, _ = run(capsys, *args, "--weight-bound", "1")
    assert code == 0
    for member in json.loads(out)["members"]:
        for entry in member["fields"].values():
            assert entry["stabilized"] is False
            assert [] in entry["unstabilized"]  # L = ∅ has an unchecked shell
    _, out, _ = run(capsys, *args)
    for member in json.loads(out)["members"]:
        for entry in member["fields"].values():
            assert entry["stabilized"] is True
            assert entry["unstabilized"] == []


def test_warnings_print_without_a_source_location():
    # stderr names the warning class and its L list, never a file:line whose
    # number changes with each edit of the emitting module
    src = str(Path(srbetti.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["tor", "--facets", "1 2, 2 3, 3 4, 1 4", "--weight-bound", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "srbetti.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stderr.startswith(
        "warning: StabilizationNotReached: weight shells still contribute at the "
        "bound 1 for L in [[], [1], [2], [1, 2]]\n"
    )
    assert not re.search(r"\.py:\d+", proc.stderr)
    assert proc.stderr.count("StabilizationNotReached") == 1  # no second CLI line
    before = warnings.formatwarning
    with pytest.warns(StabilizationNotReached):
        assert main(argv) == 0
    assert warnings.formatwarning is before  # restored on the way out


def test_random_complex_refuses_m_over_the_cap_before_drawing():
    t0 = time.perf_counter()
    with pytest.raises(VertexBudgetExceeded):
        random_complex(25, 0.4, 1)
    assert time.perf_counter() - t0 < 1


def test_corpus_passes_max_m_to_its_members(capsys):
    code, out, err = run(
        capsys, "corpus", "--seed", "1", "--count", "3", "--corpus-max-m", "6", "--max-m", "5"
    )
    assert code == 2
    assert out == ""
    assert err == "error: VertexBudgetExceeded: m=6 exceeds the vertex cap 5\n"


def test_random_complex_contract():
    # density 0: only singleton facets
    K = random_complex(4, 0.0, 9)
    assert K.faces_by_card[1] == (1, 2, 4, 8)
    assert K.dim == 0
    # determinism
    assert random_complex(6, 0.3, 7) == random_complex(6, 0.3, 7)
    assert random_complex(6, 0.3, 7) != random_complex(6, 0.3, 8)


def test_consecutive_main_calls_match_fresh_runs(capsys):
    # main parses with one parser per process: a second call, with another
    # subcommand and none of the first call's flags, prints what a fresh
    # process prints, and build_parser still hands out a parser of its own
    src = str(Path(srbetti.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    square = ["--facets", "1 2, 2 3, 3 4, 1 4"]
    calls = [
        ["verify", *square, "--format", "text", "--field", "f2", "--trivial"],
        ["betti", *square],
        ["quotient", *square, "--minimum", "--field", "f3"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "srbetti.cli", *argv], capture_output=True, text=True, env=env
        )
        for argv in calls
    ]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert in_process[1][1].startswith("{")  # the default format, not the first call's text
    assert srbetti.cli._parser() is srbetti.cli._parser()
    assert srbetti.cli.build_parser() is not srbetti.cli.build_parser()


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        {"nested": {"empty": [], "deeper": {"x": [{}]}}},
        [-1, 0, 7, -(10**30)],
        {"t": True, "f": False, "n": None, "in list": [True, False, None, 1]},
        ["δ = ∂∘∂", "ω_L ⊆ [m]", "\U0001d52d", "tab\tnewline\n"],
        {'quo"te': 'say "hi"', "back\\slash": "C:\\dir\\", "ключ": "значение"},
        {"float": 0.4, "tuple": (1, (2, 3)), "deep": [[0.5, []]]},
        {1: "int key", "s": [{True: None, None: 2.5}]},
        "bare string",
        3,
        None,
    ],
)
def test_dumps_writes_what_json_dumps_indent_2_writes(obj):
    assert srbetti.cli._dumps(obj) == json.dumps(obj, indent=2)


_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
_PAYLOADS = st.recursive(
    st.text() | st.integers() | st.booleans() | st.none() | st.floats(),
    lambda items: st.lists(items) | st.lists(items).map(tuple) | st.dictionaries(_KEYS, items),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_dumps_writes_every_shape_as_json_dumps_does(obj):
    assert srbetti.cli._dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_peaks_below_5_times_its_output():
    # each container's text is one join of its items' texts, so the writer
    # keeps no str per output line until the end: a Betti-shaped payload of
    # 50,000 rows peaks at about 3.4 times the output's length, where one
    # list of lines for the whole payload reached 6.7
    rows = [{"i": i % 9, "omega": [1, 3, 4, 7, 9], "beta": i % 5 + 1} for i in range(50_000)]
    payload = {"complex": {"m": 9, "facets": [[1, 2]]}, "field": "f2", "entries": rows, "total": 7}
    tracemalloc.start()
    try:
        size = len(srbetti.cli._dumps(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * size


def test_dumps_leaves_no_garbage_for_the_cycle_collector():
    # the recursive encoder must not stay in a reference cycle with the
    # output, which would keep every fragment alive until a gc pass
    payload = {"rows": [{"i": i, "omega": [1, 2], "beta": i} for i in range(50)], "ok": True}
    gc.collect()
    gc.disable()
    try:
        srbetti.cli._dumps(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def dumped(monkeypatch):
    """Every (payload, text) that the CLI's encoder writes."""
    seen = []
    dumps = srbetti.cli._dumps

    def record(obj):
        seen.append((obj, dumps(obj)))
        return seen[-1][1]

    monkeypatch.setattr(srbetti.cli, "_dumps", record)
    return seen


@pytest.mark.parametrize(
    "facets, m", [("1 2, 2 3, 3 4, 1 4", "4"), ("1 2 3, 3 4, 4 5 6, 2 5", "6"), ("1 2, 3", "4")]
)
def test_every_command_payload_is_written_as_json_dumps_writes_it(capsys, dumped, facets, m):
    inp = ["--facets", facets, "--m", m, "--allow-isolated"]
    commands = [["betti", *inp, "--field", "f2"], ["zk", *inp], ["color", *inp, "--trivial"]]
    commands += [[c, *inp, "--field", "f3"] for c in ("quotient", "tor", "verify")]
    commands += [["sharp", "--dims", "1", "2"], ["corpus", "--seed", "5", "--count", "2"]]
    for argv in commands:
        run(capsys, *argv)
    assert len(dumped) == len(commands)
    for obj, text in dumped:
        assert text == json.dumps(obj, indent=2)
