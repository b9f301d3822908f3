"""Golden-byte tests of the command line.

Each case runs ``cli.run`` on fixed input files under ``tests/golden`` and
compares its exit code, stdout and stderr with the recorded
``tests/golden/expected/<case>.golden`` byte for byte.  The recordings were
made before the coloring and Alexander kernels were rewritten, so they pin
the outputs that rewrite had to keep.  The ``search-open3-*``,
``search-weak1-*`` and ``search-stabilized5`` cases were recorded before
the search's successor cache and one-pass canonical form: an open pair of
3-base knots searched through depth 4, the same pair cut by a state cap in
the middle of its last level, weak-1 searches whose certificates attach
and remove trivial handles, and a 5-fold stabilized unknot (words with
cancelling pairs) against the unknot.  The ``apply-*``, ``gen-*``,
``validate-*``, ``genus-*`` and ``quandle-*`` cases were recorded before
script parsing and move application were made to read one table: a
script using every move kind, malformed script lines, the example
generators and their bad specs.  ``search-open3-cap40`` was re-recorded
once, when a level cut short by the state cap stopped counting towards
the reported depth.  ``search-open3-depth0`` (an open pair at depth 0)
and ``search-open3-cap20`` (the open pair cut by a state cap in its
third level) were recorded before the search reduced each side first.
That change re-recorded every search golden whose bytes it moved: a
certificate may start with its side's reduction, ``UNKNOWN`` counts
include the reduction path states the search did not reach, and
``search-unknown`` (depth 0) became ``EQUIVALENT``.  ``genus-huge-bases``
(a file with 10^20 - 1 bases) was recorded when component counts stopped
visiting bases that no handle touches; before, it failed with an
``OverflowError``.  ``color-bad-axioms`` (a 3-element table file with
``1*1 = 2``) was recorded before a quandle file's axioms were read from
the quandle's cached verdict instead of being checked again.
``validate-bad-underscore`` (``bases 1_0``), ``apply-bad-plus`` (``stab
+1``), ``color-bad-quandle-underscore`` (``dihedral:1_0``) and
``gen-bad-plus`` (``torus:+2``) were recorded when integers came to be read
as plain decimals; before, each token read as the integer ``int`` makes
of it and the command succeeded.  ``gen-bad-random-bases`` (a random
spec with no bases) pins an error line that no other case reached.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ribbonlab
from ribbonlab import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "color-spun-d3": ["color", "spun-trefoil.ribbon", "--quandle", "dihedral:3"],
    "color-spun-d3-list": ["color", "spun-trefoil.ribbon", "--quandle", "dihedral:3", "--list"],
    "color-spun-d5": ["color", "spun-trefoil.ribbon", "--quandle", "dihedral:5"],
    "color-spun-s4": ["color", "spun-trefoil.ribbon", "--quandle", "s4-transpositions.quandle"],
    "color-spun-s4-list": ["color", "spun-trefoil.ribbon", "--quandle", "s4-transpositions.quandle", "--list"],
    "color-knot12-d3": ["color", "knot12.ribbon", "--quandle", "dihedral:3"],
    "color-knot12-d6": ["color", "knot12.ribbon", "--quandle", "dihedral:6"],
    "color-knot12-d7": ["color", "knot12.ribbon", "--quandle", "dihedral:7"],
    "color-knot12-d9": ["color", "knot12.ribbon", "--quandle", "dihedral:9"],
    "color-knot12-d9-list": ["color", "knot12.ribbon", "--quandle", "dihedral:9", "--list"],
    "color-knot12-trivial2": ["color", "knot12.ribbon", "--quandle", "trivial:2"],
    "color-knot12-s4": ["color", "knot12.ribbon", "--quandle", "s4-transpositions.quandle"],
    "color-torus2-d3": ["color", "torus2.ribbon", "--quandle", "dihedral:3"],
    "color-torus2-d4-list": ["color", "torus2.ribbon", "--quandle", "dihedral:4", "--list"],
    "color-bad-quandle": ["color", "spun-trefoil.ribbon", "--quandle", "dihedral:x"],
    "color-bad-axioms": ["color", "spun-trefoil.ribbon", "--quandle", "bad-axioms.quandle"],
    "color-bad-quandle-underscore": ["color", "spun-trefoil.ribbon", "--quandle", "dihedral:1_0"],
    "alex-spun": ["alex", "spun-trefoil.ribbon"],
    "alex-knot12": ["alex", "knot12.ribbon"],
    "alex-torus2": ["alex", "torus2.ribbon"],
    "alex-disconnected": ["alex", "disconnected.ribbon"],
    "genus-huge-bases": ["genus", "huge-bases.ribbon"],
    "canon-spun": ["canon", "spun-trefoil.ribbon"],
    "canon-knot12": ["canon", "knot12.ribbon"],
    "canon-torus2": ["canon", "torus2.ribbon"],
    "search-stabilized3": ["search", "stabilized3.ribbon", "unknot.ribbon", "--depth", "3", "--weak", "0"],
    "search-spun-stabilized": ["search", "spun-stabilized.ribbon", "spun-trefoil.ribbon", "--depth", "2", "--weak", "0"],
    "search-spun-unknot": ["search", "spun-trefoil.ribbon", "unknot.ribbon", "--depth", "2", "--weak", "0"],
    "search-knot12-spun": ["search", "knot12.ribbon", "spun-trefoil.ribbon", "--depth", "2", "--weak", "0"],
    "search-torus2-genus": ["search", "torus2.ribbon", "unknot.ribbon", "--depth", "2", "--weak", "0"],
    "search-torus2-weak": ["search", "torus2.ribbon", "unknot.ribbon", "--depth", "2", "--weak", "2"],
    "search-unknown": ["search", "spun-stabilized.ribbon", "spun-trefoil.ribbon", "--depth", "0", "--weak", "0"],
    "search-open3-depth4": ["search", "open3a.ribbon", "open3b.ribbon", "--depth", "4", "--weak", "0"],
    "search-open3-cap40": ["search", "open3a.ribbon", "open3b.ribbon", "--depth", "4", "--weak", "0", "--states", "40"],
    "search-open3-depth0": ["search", "open3a.ribbon", "open3b.ribbon", "--depth", "0", "--weak", "0"],
    "search-open3-cap20": ["search", "open3a.ribbon", "open3b.ribbon", "--depth", "4", "--weak", "0", "--states", "20"],
    "search-weak1-trivh": ["search", "weak-slid.ribbon", "open3a.ribbon", "--depth", "2", "--weak", "1"],
    "search-weak1-untrivh": ["search", "weak-slid.ribbon", "weak-destab.ribbon", "--depth", "3", "--weak", "1"],
    "search-stabilized5": ["search", "stabilized5.ribbon", "unknot.ribbon", "--depth", "5", "--weak", "0"],
    "apply-all-moves": ["apply", "open3a.ribbon", "--script", "all-moves.script"],
    "apply-bad-apply": ["apply", "open3a.ribbon", "--script", "bad-apply.script"],
    "apply-bad-arity": ["apply", "open3a.ribbon", "--script", "bad-arity.script"],
    "apply-bad-int": ["apply", "open3a.ribbon", "--script", "bad-int.script"],
    "apply-bad-which": ["apply", "open3a.ribbon", "--script", "bad-which.script"],
    "apply-bad-slide-dir": ["apply", "open3a.ribbon", "--script", "bad-slide-dir.script"],
    "apply-bad-xslide-dir": ["apply", "open3a.ribbon", "--script", "bad-xslide-dir.script"],
    "apply-bad-ins-zero": ["apply", "open3a.ribbon", "--script", "bad-ins-zero.script"],
    "apply-bad-keyword": ["apply", "open3a.ribbon", "--script", "bad-keyword.script"],
    "apply-bad-two-faults": ["apply", "open3a.ribbon", "--script", "bad-two-faults.script"],
    "apply-bad-ins-two-faults": ["apply", "open3a.ribbon", "--script", "bad-ins-two-faults.script"],
    "apply-bad-plus": ["apply", "open3a.ribbon", "--script", "bad-plus.script"],
    "gen-unknot": ["gen", "unknot"],
    "gen-spun-trefoil": ["gen", "spun-trefoil"],
    "gen-torus3": ["gen", "torus:3"],
    "gen-stabilized5": ["gen", "stabilized:5:3"],
    "gen-random": ["gen", "random:4:5:3:7"],
    "gen-bad-arity": ["gen", "torus"],
    "gen-bad-int": ["gen", "torus:x"],
    "gen-bad-genus": ["gen", "torus:-1"],
    "gen-bad-kind": ["gen", "knot"],
    "gen-bad-random": ["gen", "random:3:1:2:5"],
    "gen-bad-random-len": ["gen", "random:2:1:-1:1"],
    "gen-bad-random-bases": ["gen", "random:0:0:0:1"],
    "gen-bad-stabilized": ["gen", "stabilized:-1:0"],
    "gen-bad-plus": ["gen", "torus:+2"],
    "validate-knot12": ["validate", "knot12.ribbon"],
    "validate-bad-base": ["validate", "bad-base.ribbon"],
    "validate-bad-underscore": ["validate", "bad-underscore.ribbon"],
    "genus-torus2": ["genus", "torus2.ribbon"],
    "genus-knot12": ["genus", "knot12.ribbon"],
    "quandle-spun": ["quandle", "spun-trefoil.ribbon"],
    "quandle-spun-group": ["quandle", "spun-trefoil.ribbon", "--group"],
    "quandle-knot12": ["quandle", "knot12.ribbon"],
    "quandle-knot12-group": ["quandle", "knot12.ribbon", "--group"],
}


def run_case(argv, capsys):
    """(exit code, stdout, stderr) of one invocation; file names in
    ``argv`` are relative to the golden directory."""
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue(), capsys.readouterr().err


def render(code, out, err) -> str:
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    expected = (GOLDEN / "expected" / f"{case}.golden").read_text(encoding="utf-8")
    monkeypatch.chdir(GOLDEN)
    assert render(*run_case(CASES[case], capsys)) == expected


@pytest.mark.parametrize(
    "case", ["search-open3-cap40", "search-open3-cap20", "search-stabilized5", "search-spun-unknot"]
)
def test_search_stats_is_one_json_line_on_stderr(case, capsys, monkeypatch):
    expected = (GOLDEN / "expected" / f"{case}.golden").read_text(encoding="utf-8")
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_case(CASES[case] + ["--stats"], capsys)
    assert render(code, out, "") == expected
    assert err.endswith("\n") and err.count("\n") == 1
    stats = json.loads(err)
    assert sorted(stats) == ["caches", "levels", "reduced", "seconds", "states", "stop"]
    assert stats["stop"] in ("gate", "met", "depth", "cap")
    assert sorted(stats["seconds"]) == ["gate", "reduction", "search"]
    assert all(type(t) is float and t >= 0 for t in stats["seconds"].values())
    assert sorted(stats["states"]) == ["a", "b"]
    assert sorted(stats["reduced"]) == ["a", "b"]
    assert all(side in ("a", "b") and size >= 0 for side, size in stats["levels"])
    # levels describe the breadth-first search alone: past the gate, each
    # side stores its root, one state per reduction move and the new
    # states of its levels
    for side in "ab":
        new = sum(size for s, size in stats["levels"] if s == side)
        stored = 0 if stats["stop"] == "gate" else 1 + stats["reduced"][side] + new
        assert stats["states"][side] == stored
    if out.startswith("UNKNOWN"):
        assert out.split("\n")[0] == f"UNKNOWN {sum(stats['states'].values())} {len(stats['levels']) - (stats['stop'] == 'cap')}"
    assert sorted(stats["caches"]) == ["handle_readings", "reduction_steps"]
    for info in stats["caches"].values():
        assert sorted(info) == ["hits", "misses"]


def test_a_usage_error_exits_1_with_the_message_and_the_usage_line(capsys):
    # argparse's wording differs between Python versions, so only the shape
    # is pinned
    code, out, err = run_case(["search", "a", "b"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--depth" in err.splitlines()[0]
    # then the usage of the subcommand that refused, which names its options
    usage = err.split("\n", 1)[1]
    assert usage.startswith("usage: ribbonlab search ") and "--depth DEPTH" in usage and "--weak WEAK" in usage
    # a bad command name is refused by the top-level parser
    code, out, err = run_case(["nosuch"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "nosuch" in err.splitlines()[0]
    assert err.endswith(cli._build_parser().format_usage())


def test_module_entry_point_runs_once_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(Path(ribbonlab.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "ribbonlab.cli", "alex", str(GOLDEN / "spun-trefoil.ribbon")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "t^2 - t + 1\n"


@pytest.mark.parametrize("table, checks", [("dihedral:7", 0), ("s4-transpositions.quandle", 1)])
def test_color_checks_a_quandle_file_at_most_once(table, checks, tmp_path, monkeypatch):
    # an affine table's axioms are read off the table; any other table is
    # checked once, and count_colorings reuses that verdict
    from ribbonlab import quandle

    path = GOLDEN / table
    if table.startswith("dihedral:"):
        path = tmp_path / "d7.quandle"
        path.write_text(quandle.serialize_quandle(quandle.builtin_quandle(table)), encoding="utf-8")
    calls = []
    check = quandle.check_quandle_axioms
    # counted wherever the command line could call it from
    for module in (quandle, cli):
        monkeypatch.setattr(module, "check_quandle_axioms", lambda q: calls.append(q.name) or check(q), raising=False)
    argv = ["color", str(GOLDEN / "spun-trefoil.ribbon"), "--quandle", str(path)]
    assert cli.run(argv, out=io.StringIO()) == 0
    assert len(calls) == checks
