import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from btcomplex.cli import _dump, parse_args
from btcomplex.padics import INF

SRC = Path(__file__).resolve().parent.parent / "src"
# an absolute path, so the subprocesses import this checkout from any working directory
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
BASE = [sys.executable, "-m", "btcomplex.cli"]


def run_cli(*args, text=True):
    return subprocess.run(BASE + list(args), capture_output=True, text=text, env=ENV)


def test_counts_command_passes():
    r = run_cli("counts", "--p", "3", "--k", "1", "--n", "1")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["pass"] is True
    assert all(row["pass"] for row in report["rows"])


def test_tree_command_dot():
    r = run_cli("tree", "--p", "2", "--n", "2")
    assert r.returncode == 0
    assert r.stdout.startswith("graph")
    assert r.stdout.count("--") == 9  # edges within depth 2 at p=2


def test_tree_command_json():
    r = run_cli("tree", "--p", "2", "--n", "1", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["vertices"]) == 4 and len(data["edges"]) == 3


def test_orbits_and_minimal_commands():
    r = run_cli("orbits", "--p", "2", "--k", "1", "--n", "1")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["orbits"]) == 12 + 6
    r = run_cli("minimal", "--p", "2", "--k", "1", "--n", "1")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["partition"] is True and len(data["minimal"]) == 6


def test_matrix_command():
    r = run_cli("matrix", "--p", "2", "--k", "1", "--n", "1", "--d", "0")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["order"]) == 6
    kinds = {(b["row"], b["col"]): b["kind"] for b in data["blocks"]}
    assert all(kinds[(i, i)] == "id" for i in range(6))


def test_verify_command():
    r = run_cli("verify", "--p", "2", "--k", "1", "--n", "1", "--d", "0")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["verdict"] == "exact"
    assert data["dims"]["C1"] == 6 and data["dims"]["ker_partial0"] == 6
    assert data["counts"]["pass"] and data["minimal_partition"]


def test_example_command():
    r = run_cli("example")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["match"] is True
    assert data["missing"] == [] and data["unexpected"] == []


def test_deterministic_output():
    a = run_cli("verify", "--p", "3", "--k", "1", "--n", "1", "--d", "1", "--seed", "5")
    b = run_cli("verify", "--p", "3", "--k", "1", "--n", "1", "--d", "1", "--seed", "5")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("bogus").returncode == 2
    assert run_cli("counts", "--p", "1").returncode == 2
    assert run_cli("counts", "--p", "3", "--prec", "3").returncode == 2
    assert run_cli("counts", "--format", "dot").returncode == 2
    assert run_cli("counts", "--p", "4").returncode == 2
    assert run_cli("counts", "--prec", "abc").returncode == 2
    assert run_cli("minimal", "--n", "0").returncode == 2
    assert run_cli("verify", "--n", "0").returncode == 2
    assert run_cli("matrix", "--n", "0").returncode == 2
    r = subprocess.run([sys.executable, "-O", "-m", "btcomplex.cli", "verify", "--n", "0"],
                       capture_output=True, text=True, env=ENV)
    assert r.returncode == 2 and "Traceback" not in r.stderr
    r = run_cli("counts", "--out", str(tmp_path / "missing" / "x.json"))
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1


def verify_with_patched_chains(patch, flags=()):
    """`verify --p 3 --n 1 --d 0` through main in a fresh interpreter, after
    the Python source `patch` has replaced a part of btcomplex.chains."""
    script = "\n".join([
        "import sys",
        "from btcomplex import chains",
        "from btcomplex.cli import main",
        patch,
        "sys.exit(main(['verify', '--p', '3', '--n', '1', '--d', '0']))",
    ])
    return subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=ENV)


# partial0 that adds each part to the minimal records under it unrestricted,
# so parts on different discs meet in one sum
UNRESTRICTED_PARTIAL0 = "\n".join([
    "def partial0(c0, reg):",
    "    out = chains.Chain(c0.d)",
    "    for i, f in c0.parts.items():",
    "        for m in reg.min_cover[i]:",
    "            out.add_part(m, f)",
    "    return out",
    "chains.partial0 = partial0",
])


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_a_failed_verdict_exits_one_with_the_report(flags):
    r = verify_with_patched_chains("chains.surjectivity_lift = lambda target, reg: chains.Chain(target.d)", flags)
    assert (r.returncode, r.stderr) == (1, "")
    report = json.loads(r.stdout)
    assert report["verdict"] == "failed"
    assert report["counterexample"] == {"check": "constructive surjectivity on sampled targets",
                                        "detail": "sample 0"}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_a_broken_invariant_exits_one_with_one_error_line_and_no_report(flags):
    # the sum of parts on different discs raises inside the first check; main
    # prints the error alone, with no report and no traceback
    r = verify_with_patched_chains(UNRESTRICTED_PARTIAL0, flags)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "verification error: added functions differ in disc or degree\n"


def test_parse_args_resolves_precision_and_format():
    # run reads the namespace itself: prec an int, auto being k + 2n + d + 8,
    # and format the command's default
    args = parse_args(["counts", "--p", "5", "--k", "2", "--n", "3", "--d", "1"])
    assert (args.command, args.p, args.k, args.n, args.d, args.seed, args.out) == ("counts", 5, 2, 3, 1, 0, None)
    assert (args.prec, args.format) == (17, "json")
    assert (parse_args(["tree", "--prec", "9"]).prec, parse_args(["tree"]).format) == (9, "dot")


def test_dump_is_strict_json():
    # a value without a JSON literal fails instead of printing as a string
    with pytest.raises(TypeError):
        _dump({"x": Fraction(1, 3)})
    with pytest.raises(ValueError):
        _dump({"x": INF})
    assert _dump({"b": [1, "v0:u1"], "a": True}) == '{\n "a": true,\n "b": [\n  1,\n  "v0:u1"\n ]\n}'


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    args = ("counts", "--p", "2", "--k", "1", "--n", "1")
    r = run_cli(*args, "--out", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(out.read_text())["pass"] is True
    assert out.read_bytes() == run_cli(*args, text=False).stdout


# sha256 of stdout, pinned so that refactors keep the output byte-identical
GOLDEN = [
    ("orbits --p 2 --k 1 --n 2", "4adede16f076870fd42e766818b58a861d751d151a153aaca2a1a405c3822865"),
    ("orbits --p 3 --k 2 --n 1", "96ea50ff9e584b7dd12a8481d5d7f0f8187a21822c157c3f93cb6f599be9c732"),
    ("minimal --p 3 --k 1 --n 2", "771cc4f157437cc841b4d7c29b5c97ccc80c5a760541d6537f48fa6f109ebd42"),
    ("counts --p 3 --k 2 --n 2", "9ac9bcdb4013c8e84d2bf7fb5d945b02532cc7fb9477ada12c928118009cf503"),
    ("matrix --p 2 --k 1 --n 1 --d 0", "a0a507a290489d4c7420b151a7cfeb864e69e89a59971579c6a3a34c06b2ea3d"),
    ("matrix --p 3 --k 1 --n 2 --d 1", "75990eba13b6a179453f13af9199a65c74cb6ebc142cdb612d01dbdeac973006"),
    ("verify --p 3 --k 1 --n 1 --d 1 --seed 5",
     "17e82bcda083842d607e7f14d1a552aa5982ac1ef7ee75c86fc2c9c81bdddf2d"),
    ("verify --p 2 --k 2 --n 1 --d 2", "ed5846f3a33c9e46d1ef1c85349487afb938c4f2ff35ab000314641916f65dff"),
    ("example", "08f68916ba5075fe38a927a6aa24043aedee78bf46a6d6d7a2cee1359d1f7527"),
    # parents/children lists that are not chains (the discs are not laminar)
    ("orbits --p 2 --k 2 --n 3", "33633fdc922bca784c0c218361ad1f2315e875c56ff557b231d798c3a109028c"),
    ("orbits --p 3 --k 1 --n 2", "d6873e6f4be72ef47e4a021f3bbd699051aa79c0166e9b64cf3987cdc64c8ef3"),
    # partition at the level the minimal discs require; edge transports at depth 4
    ("minimal --p 2 --k 2 --n 4", "d4f3ff2d9b263912868eac3c0ab77334f9500003bed810bb38bd232ca7718e53"),
    ("counts --p 3 --k 2 --n 4", "30bb60fcde9a0d0d2f12db7f1afa38f738407b1bc35dc3ee3129e229f748922e"),
    # a boundary matrix at level k = 2
    ("matrix --p 2 --k 2 --n 2 --d 0", "99e9c02b5525d27d100e26ff2217fa5f032a0e557e823ce27f40b6ce55827487"),
    # level k = 3, and p = 5
    ("orbits --p 2 --k 3 --n 3", "ce3b5680eadc7db82715a4b45466e9ae8dafed710e0fb5c887c2ce842961c23e"),
    ("counts --p 5 --k 1 --n 3", "75a70e45b0621f8c226f26b82c08a432f1c168504bebeeed93cc3f35d2a72402"),
    ("minimal --p 2 --k 3 --n 4", "be5d339bf0383756112390fe1cfe6fb7af1916a8d5354a81a1984960e4ceabab"),
]


# each command also runs under python -O: the certificates must not rest on asserts
@pytest.mark.parametrize("flags,command,digest", [
    pytest.param(flags, c, digest, id=" ".join([*flags, c]))
    for flags in ([], ["-O"]) for c, digest in GOLDEN
])
def test_golden_stdout_digest(flags, command, digest):
    r = subprocess.run([sys.executable, *flags, "-m", "btcomplex.cli", *command.split()],
                       capture_output=True, env=ENV)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout).hexdigest() == digest
