"""Replay manifest: the CLI's seed and format contracts as one test.

Every command in STEPS runs through `cli.main` in a fresh directory at the
seed 07 x 32.  `replay_manifest.json` holds, per command, its exit code and
the SHA-256 of its stdout, of its stderr and of every file it writes, so a
failure names the first output that moved.  A change that alters output on
purpose regenerates the manifest, from the repository root, with

    PYTHONPATH=src python tests/test_replay.py

and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import tempfile
from pathlib import Path

from latticelab.cli import main

SEED = "07" * 32
MANIFEST = Path(__file__).with_name("replay_manifest.json")
README = Path(__file__).resolve().parents[1] / "README.md"
X16 = "1," + "0," * 15 + "1"  # x^16 + 1, which splits mod 257
X64 = "1," + "0," * 63 + "1"  # x^64 + 1, which splits mod 65537
SPARSE64 = "131096,2,0,0,0,2," + "0," * 58 + "1"  # x^64 + 2x^5 + 2x - 5 mod 131101: 3 roots
VARS = {"SEED": SEED, "F": "255,1," + "0," * 14 + "1"}  # F as README sets it

# A step is a command spelled as README spells it ($SEED, $F), or a
# (file name, text) pair for an input that the tour's shell would write.
STEPS = [
    # README's CLI tour, without bench
    "latticelab keygen --scheme plwe --n 256 --seed $SEED --out-secret s.key --out-public p.key",
    ("msg.txt", "10110100\n"),
    "latticelab encrypt --scheme plwe --public p.key --message msg.txt --out ct.txt --seed $SEED",
    "latticelab decrypt --scheme plwe --secret s.key --in ct.txt",
    "latticelab scan --f 1,0,0,0,1 --q 17",
    ("weak.prm", f"latticelab-plwe-v1\nn=16\nq=257\nf={VARS['F']}\nsigma=1.5\n"),
    "latticelab scan --f $F --q 257",
    "latticelab sample --dist plwe-uniform --params weak.prm --count 20 --seed $SEED --out weak.txt",
    "latticelab attack --alg 1 --samples weak.txt",
    "latticelab keygen --scheme glyph --n 1024 --seed $SEED --out-secret g.key --out-public g.pub",
    "latticelab sign --secret g.key --public g.pub --message msg.txt --out sig.txt --seed $SEED",
    "latticelab verify --public g.pub --message msg.txt --signature sig.txt",
    "latticelab keygen --scheme bgv --m 32 --p 2 --r 1 --levels 3 --seed $SEED"
    " --out-secret b.key --out-params b.prm",
    ("a.pt", "1,0,1\n"), ("b.pt", "1,1\n"), ("c.pt", "0,1,1,1\n"),
    *(f"latticelab encrypt --scheme bgv --params b.prm --secret b.key --message {w}.pt"
      f" --out {w}.ct --seed $SEED" for w in "abc"),
    ("circ.txt", "MUL t a b\nADD out t c\n"),
    "latticelab bgv-eval --params b.prm --circuit circ.txt --in a=a.ct --in b=b.ct --in c=c.ct"
    " --out out=out.ct",
    "latticelab decrypt --scheme bgv --params b.prm --secret b.key --in out.ct",
    # what the tour leaves out
    "latticelab smear --params weak.prm --alpha 1 --trials 2000 --seed $SEED",
    "latticelab sample --dist gaussian --sigma 3.2 --count 40 --seed $SEED",
    "latticelab sample --dist gaussian --sigma 3.2 --q 257 --count 40 --seed $SEED",
    "latticelab keygen --scheme plwe --n 16 --q-floor 256 --sigma 1.5 --seed $SEED"
    " --out-secret r.key --out-public r.pub",
    ("ring.prm", f"latticelab-plwe-v1\nn=16\nq=257\nf={X16}\nsigma=1.5\n"),
    "latticelab sample --dist plwe-oracle --params ring.prm --secret r.key --count 5"
    " --seed $SEED --out oracle.txt",
    "latticelab sample --dist plwe-uniform --params ring.prm --count 5 --seed $SEED"
    " --out uniform.txt",
    "latticelab keygen --scheme lwe --n 16 --seed $SEED --out-secret l.key --out-public l.pub",
    "latticelab encrypt --scheme lwe --public l.pub --message msg.txt --out l.ct --seed $SEED",
    "latticelab decrypt --scheme lwe --secret l.key --in l.ct",
    # BGV off x^n + 1: Phi_9, plaintexts mod 3^2
    "latticelab keygen --scheme bgv --m 9 --p 3 --r 2 --levels 3 --seed $SEED"
    " --out-secret b9.key --out-params b9.prm",
    ("x.pt", "1,8,4\n"), ("y.pt", "2,0,5,7\n"),
    "latticelab encrypt --scheme bgv --params b9.prm --secret b9.key --message x.pt"
    " --out x.ct --seed $SEED",
    "latticelab encrypt --scheme bgv --params b9.prm --secret b9.key --message y.pt"
    " --out y.ct --seed $SEED",
    ("circ9.txt", "MUL t x y\nADD out t x\n"),
    "latticelab bgv-eval --params b9.prm --circuit circ9.txt --in x=x.ct --in y=y.ct"
    " --out out=out9.ct",
    "latticelab decrypt --scheme bgv --params b9.prm --secret b9.key --in out9.ct",
    # refused inputs: x^16 + 1 has no root at 1 mod 257 (exit 1); no --q (exit 2)
    "latticelab attack --alg 1 --samples oracle.txt",
    "latticelab sample --dist uniform --seed $SEED",
    # the gcd root path (prime q >= polyring.GCD_ROOTS_MIN_Q): total and sparse splitting
    f"latticelab scan --f {X64} --q 65537",
    f"latticelab scan --f {SPARSE64} --q 131101",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in workdir.iterdir()}


def run_steps(workdir: Path) -> list[dict]:
    """Run STEPS in `workdir`: one record per command."""
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for step in STEPS:
            if isinstance(step, tuple):
                Path(step[0]).write_text(step[1])
                continue
            argv = [re.sub(r"\$(\w+)", lambda m: VARS[m[1]], tok) for tok in shlex.split(step)]
            before, out, err = _snapshot(workdir), io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv[1:])
                except SystemExit as e:
                    code = e.code
            written = {name: _sha256(data) for name, data in sorted(_snapshot(workdir).items())
                       if before.get(name) != data}
            records.append({"command": step, "exit": code,
                            "stdout": _sha256(out.getvalue().encode()),
                            "stderr": _sha256(err.getvalue().encode()), "files": written})
    finally:
        os.chdir(cwd)
    return records


def _first_moved(want: dict, got: dict) -> str | None:
    for key in ("command", "exit", "stdout", "stderr"):
        if want[key] != got[key]:
            return key
    for name in sorted(want["files"].keys() | got["files"].keys()):
        if want["files"].get(name) != got["files"].get(name):
            return f"file {name}"
    return None


def _assert_matches_manifest(got: list[dict]) -> None:
    want = json.loads(MANIFEST.read_text())
    assert want["seed"] == SEED
    for i, (w, g) in enumerate(zip(want["steps"], got)):
        moved = _first_moved(w, g)
        assert moved is None, f"step {i} `{w['command']}`: {moved} moved"
    assert len(got) == len(want["steps"])


def test_cli_outputs_match_the_manifest(tmp_path):
    _assert_matches_manifest(run_steps(tmp_path))


def test_a_second_run_in_one_process_matches_the_manifest(tmp_path):
    # main shares one parser per process: no call may leave state for the next
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        _assert_matches_manifest(run_steps(tmp_path / name))


def _readme_tour() -> list[str]:
    """The `latticelab` lines of README's CLI tour, continuations joined and the
    `for w in ...` loop unrolled."""
    block = README.read_text().split("## CLI tour", 1)[1].split("```sh\n", 1)[1]
    block = block.split("\n```", 1)[0].replace("\\\n", " ")
    commands, loop = [], None
    for line in block.splitlines():
        line = " ".join(line.split())
        if m := re.fullmatch(r"for w in (.+); do", line):
            loop = m[1].split()
        elif line == "done":
            loop = None
        elif line.startswith("latticelab "):
            commands += [line.replace("$w", w) for w in loop] if loop else [line]
    return commands


def test_readme_tour_is_in_the_manifest():
    replayed = {step["command"] for step in json.loads(MANIFEST.read_text())["steps"]}
    tour = [c for c in _readme_tour() if not c.startswith("latticelab bench ")]
    assert len(tour) == 16
    assert [c for c in tour if c not in replayed] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        steps = run_steps(Path(tmp))
    MANIFEST.write_text(json.dumps({"seed": SEED, "steps": steps}, indent=1) + "\n")
    print(f"wrote {len(steps)} commands to {MANIFEST}")
