"""CLI behavior: subcommands, formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import srbetti
import srbetti.betti
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


@pytest.mark.parametrize(
    "argv",
    [["color", "--facets", "1 2, 2 3"], ["corpus", "--seed", "1", "--count", "1"]],
)
def test_field_is_refused_where_it_is_never_read(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--field", "bogus"])
    assert exc.value.code == 2


def test_a_failed_contraction_certificate_exits_1(square_file, capsys, monkeypatch):
    # mutation check: a homotopy that drops one term of the piece w = (2, 1)
    good = srbetti.tor._homotopy
    dropped = (mask_of([1]), (2, 0, 0, 0), 0b10)

    def lossy(ctx, i, gen):
        return [] if gen == dropped else good(ctx, i, gen)

    monkeypatch.setattr(srbetti.tor, "_homotopy", lossy)
    srbetti.tor._context.cache_clear()  # the count of an earlier run is kept there
    try:
        code, out, err = run(capsys, "tor", "--in", square_file, "--blocks", "1 3 | 2 4")
    finally:
        srbetti.tor._context.cache_clear()
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


def test_corpus_starts_no_more_workers_than_members(capsys, monkeypatch):
    # the pool forks all its workers at the first submit: --jobs 64 on two
    # members must ask for two (a stand-in pool maps serially, so none start)
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(srbetti.cli, "ProcessPoolExecutor", SerialPool)
    args = ["corpus", "--seed", "3", "--count", "2", "--corpus-max-m", "5"]
    _, serial, _ = run(capsys, *args)
    code, pooled, _ = run(capsys, *args, "--jobs", "64")
    assert (code, asked, pooled) == (0, [2], serial)
    assert run(capsys, "corpus", "--seed", "3", "--count", "1", "--jobs", "64")[0] == 0
    assert asked == [2]  # one member runs in this process


def test_corpus_max_m_below_4_is_a_usage_error(capsys):
    code, out, err = run(capsys, "corpus", "--seed", "1", "--count", "2", "--corpus-max-m", "3")
    assert (code, out) == (2, "")
    assert err == "error: ValueError: --corpus-max-m must be at least 4, got 3\n"


def test_a_failed_check_exits_1(capsys, monkeypatch):
    # mutation checks: a Betti table that lost an entry makes zk's two routes
    # disagree, and a flipped quotient sign breaks d∘d; both are failed
    # checks, not usage errors
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
    with monkeypatch.context() as patch:
        patch.setattr(srbetti.tor, "quotient_coboundary", flipped)
        code, out, err = run(capsys, "quotient", *square)
    assert (code, out) == (1, "")
    assert err.startswith("error: NotAComplex: d∘d != 0")


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
