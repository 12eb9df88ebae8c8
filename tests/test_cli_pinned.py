"""CLI output pinned byte for byte: stdout, stderr, exit code and the
``--out`` file of each command in :data:`COMMANDS`, run in-process.

The fixtures under ``tests/fixtures/cli/`` are written by running this
module as a script, which runs every command and writes one JSON file per
command::

    PYTHONPATH=src python -m tests.test_cli_pinned

A change that means to keep the CLI's output regenerates nothing: it runs
the test.  ``bench`` prints timings in its last CSV column,
``build_seconds``; they are masked, so its size columns are pinned.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from onevar.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "cli"

# the model file of the README
README_MODEL = {
    "factors": [{"worlds": 2, "edges": [[0, 0], [0, 1], [1, 1]]},
                {"worlds": 1, "edges": [[0, 0]]}],
    "valuation": {"p1": [[0, 0]]},
    "point": [0, 0],
}

# name -> argv; "{tmp}" is a directory holding model.json (README_MODEL),
# and the commands run in this order, so later ones read earlier --out files
COMMANDS = {
    "translate": ["translate", "p1 -> [1]p1"],
    "translate-expand": ["translate", "p1", "--expand"],
    "check": ["check", "{tmp}/model.json", "p1 | ~p1"],
    "check-sat-set": ["check", "{tmp}/model.json", "<1>~p1", "--sat-set"],
    "search": ["search", "p1 -> [1]p1", "--classes", "T,T",
               "--max-worlds", "2"],
    # the witness is the last valuation, in a frame's second block of lanes
    "search-second-block": ["search", " & ".join(f"p{i}" for i in
                                                  range(1, 14)) + " -> F",
                            "--max-worlds", "1"],
    # 3 variables at 3x3 exceed the exhaustive cutoff: sampled valuations
    "search-sampled": ["search", "p1 & p2 & p3 -> p1", "--seed", "7"],
    "search-time-limit": ["search", "[1]p1 -> p1", "--time-limit", "0"],
    "search-s4-t": ["search", "p1 -> [1][2]p1", "--classes", "S4,T"],
    "search-s5-s4": ["search", "[1][2]p1 -> [2][1]p1", "--classes",
                     "S5,S4", "--max-worlds", "2"],
    "search-k-k": ["search", "[1]p1 -> p1", "--classes", "K,K"],
    "search-no-valuations": ["search", "p1", "--max-valuations", "0"],
    "chain-search": ["search", "p1 -> [1]p1", "--max-worlds", "2",
                     "--out", "{tmp}/found.json"],
    "chain-transfer": ["transfer", "{tmp}/found.json", "p1 -> [1]p1",
                       "--out", "{tmp}/transferred.json"],
    "chain-extract": ["extract", "{tmp}/transferred.json", "p1 -> [1]p1"],
    "suite": ["suite", "--classes", "T,T"],
    "suite-three-factors": ["suite", "--classes", "T,T,T", "--max-worlds",
                            "2", "--reduction-worlds", "2"],
    "calibrate": ["calibrate"],
    "calibrate-k-mode": ["calibrate", "--k-mode"],
    "bench": ["bench", "--max-depth", "4"],
    "bench-k-mode": ["bench", "--max-depth", "4", "--k-mode"],
    "bench-arity-3": ["bench", "--max-depth", "4", "--arity", "3"],
}


def mask_build_seconds(csv: str) -> str:
    """``bench``'s CSV with each data row's ``build_seconds`` field as ``*``."""
    header, *rows = csv.splitlines(keepends=True)
    return header + "".join(row.rpartition(",")[0] + ",*\n" for row in rows)


def run_all(tmp: Path) -> dict[str, dict]:
    """Each command's exit code, stdout, stderr and ``--out`` file."""
    (tmp / "model.json").write_text(json.dumps(README_MODEL))
    results = {}
    for name, template in COMMANDS.items():
        argv = [arg.replace("{tmp}", str(tmp)) for arg in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stdout = out.getvalue()
        if template[0] == "bench":
            stdout = mask_build_seconds(stdout)
        result = {"argv": template, "exit": code, "stdout": stdout,
                  "stderr": err.getvalue()}
        if "--out" in argv:
            result["out"] = Path(argv[argv.index("--out") + 1]).read_text()
        results[name] = result
    return results


def test_cli_output_matches_the_fixtures(tmp_path):
    for name, result in run_all(tmp_path).items():
        want = json.loads((FIXTURES / f"{name}.json").read_text())
        assert result == want, name
    assert sorted(path.stem for path in FIXTURES.glob("*.json")) == \
        sorted(COMMANDS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(Path(tmp))
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        (FIXTURES / f"{name}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n")
