"""The golden stdout corpus of the `ovalbent` command.

`cli.json` maps each command of the corpus to its exit code, the sha256
of its stdout and the sha256 of each file it writes.  Commands run
in-process through `ovalbent.cli.main`, in order, in one temporary
directory: `{tmp}` in an argument stands for that directory, and the
directory's path in stdout is written back as `{tmp}` before hashing.
Input files (oval and line-oval documents, G tables) are stored in the
corpus and written into the directory first; later commands may also
read the files that earlier ones wrote.

The corpus ends with the timed commands and domain probes of the three
benchmark workloads (`perfbench/workloads.py`) at seeds 1 and 2, each
seed's generated files stored as inputs under `<workload><seed>/`.  The
m = 8 catalog `oval verify` commands are left out, since each takes
seconds, and so is a command that differs from an earlier one only in
its `--seed N` prefix, which has no effect.

Rewrite the corpus, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

A change that moves a digest or an exit code names the command and the
reason in CHANGES.md.  `test_golden.test_corpus_matches_its_generator`
checks, without running a command, that `cli.json` lists exactly the
commands and inputs that `plan()` generates, so an edit here needs a
regeneration.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli.json")
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

MS = range(2, 8)
PQFS = ("field:2", "field:3", "field:4", "field:5", "luneburg:3",
        "kantor:3:1:1:0", "kantor:5:1:1:11")
METHODS = ("walsh", "product", "budaghyan", "chi-swap")
WORKLOAD_SEEDS = (1, 2)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(tmp: Path) -> dict[str, str]:
    return {p.relative_to(tmp).as_posix(): _digest(p.read_bytes())
            for p in sorted(tmp.rglob("*")) if p.is_file()}


def write_inputs(inputs: dict[str, str], tmp: Path) -> None:
    for name, text in inputs.items():
        (tmp / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp / name).write_text(text)


def run(argv: list[str], tmp: Path) -> dict:
    """Exit code, stdout digest and digests of the files written or
    changed under `tmp` by one in-process command."""
    from ovalbent import cli

    before = _snapshot(tmp)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([a.replace("{tmp}", str(tmp)) for a in argv])
        except SystemExit as e:          # argparse usage errors
            code = e.code
    after = _snapshot(tmp)
    entry = {"argv": argv, "exit": code,
             "stdout": _digest(out.getvalue().replace(str(tmp), "{tmp}")
                               .encode())}
    files = {k: v for k, v in after.items() if before.get(k) != v}
    if files:
        entry["files"] = files
    return entry


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

def _specs(m: int) -> list[list[str]]:
    """Flags of every family at m: leander_r at each valid r (and at
    r = 2 when that is invalid, an exit-2 case)."""
    base = ["--m", str(m)]
    out = [["--family", fam] + base
           for fam in ("quadratic", "binomial_3", "binomial_1_6")]
    rs = [r for r in range(2, m) if math.gcd(r, m) == 1] or [2]
    out += [["--family", "leander_r"] + base + ["--r", str(r)] for r in rs]
    return out


def _inputs() -> dict[str, str]:
    from ovalbent import geometry, spread, spreadbent
    from ovalbent.gf import field_make

    inputs = {}
    for m in (3, 4):
        p = field_make(m)
        conic = geometry.Oval(frozenset(int(u) for u in p.S), frozenset())
        inputs[f"conic{m}.json"] = geometry.oval_to_json(conic, p)
        inputs[f"conic_lines{m}.json"] = geometry.line_oval_to_json(
            geometry.dual_points_to_lines(sorted(conic.points), p), p)
        hyper = geometry.catalog_oval("subiaco" if m == 4 else "conic_like_S", p)
        inputs[f"hyper{m}.json"] = geometry.oval_to_json(hyper, p)
    p = field_make(3)
    line = sorted(geometry.line_points(geometry.AffineLineK(int(p.S[1]), 3), p))
    bad = line + [x for x in range(p.K.size) if x not in line][:1]
    inputs["collinear3.json"] = geometry.oval_to_json(
        geometry.Oval(frozenset(bad), frozenset()), p)
    Q = spread.field_pqf(3)
    G = spread.sqrt_diag_g_table(Q) ^ spreadbent.star_table(Q)[5, :]
    inputs["g_sqrt_star5.txt"] = " ".join(map(str, G.tolist())) + "\n"
    perm = list(range(32))
    random.Random(1).shuffle(perm)
    inputs["g_perm32.txt"] = " ".join(map(str, perm)) + "\n"
    return inputs


def commands() -> list[list[str]]:
    from ovalbent.gf import field_make

    cmds: list[list[str]] = []
    for m in MS:
        for spec in _specs(m):
            cmds.append(["niho"] + spec)
            cmds.append(["ea"] + spec)
            for method in METHODS:
                cmds.append(["dual"] + spec + ["--method", method])
                for cross in METHODS:
                    cmds.append(["dual"] + spec + ["--method", method,
                                                   "--cross-check", cross])
        sub = str(int(field_make(m).embed[2]))       # a in F: not bent
        cmds.append(["niho", "--family", "quadratic", "--m", str(m),
                     "--a-index", sub])
        cmds.append(["dual", "--family", "quadratic", "--m", str(m),
                     "--a-index", sub, "--method", "walsh"])
        for cat in ("conic_like_S", "subiaco", "adelaide", "fisher_schmidt"):
            cmds.append(["oval", "verify", "--catalog", cat, "--m", str(m)])
    for m in (3, 5):
        d = f"{{tmp}}/niho_b3m{m}"
        cmds.append(["niho", "--family", "binomial_3", "--m", str(m),
                     "--out-dir", d])
        cmds.append(["dual", "--family", "binomial_3", "--m", str(m),
                     "--method", "product", "--out-dir", d])
        cmds.append(["ea", "--table", f"{d}/truth_table.txt"])
        cmds.append(["oval", "convert", "--m", str(m),
                     "--lines-json", f"{d}/line_oval.json"])
    for m in (3, 4):
        cmds += [["oval", "verify", "--m", str(m), "--json", f"{{tmp}}/conic{m}.json"],
                 ["oval", "verify", "--m", str(m), "--json", f"{{tmp}}/hyper{m}.json"],
                 ["oval", "convert", "--m", str(m),
                  "--points-json", f"{{tmp}}/conic{m}.json"],
                 ["oval", "convert", "--m", str(m),
                  "--points-json", f"{{tmp}}/hyper{m}.json"],
                 ["oval", "convert", "--m", str(m),
                  "--lines-json", f"{{tmp}}/conic_lines{m}.json"]]
    cmds += [["oval", "verify", "--m", "3", "--json", "{tmp}/collinear3.json"],
             ["oval", "verify", "--m", "4", "--json", "{tmp}/conic3.json"],
             ["oval", "convert", "--m", "3",
              "--points-json", "{tmp}/collinear3.json"],
             ["oval", "convert", "--m", "3"]]

    builds = [["--kind", "field", "--m", str(m)] for m in (2, 3, 4, 5)]
    builds += [["--kind", "luneburg", "--m", "3"],
               ["--kind", "kantor", "--m", "3", "--chain", "1",
                "--lambdas", "1", "--zetas", "0"],
               ["--kind", "kantor", "--m", "5", "--chain", "1",
                "--lambdas", "1", "--zetas", "11"]]
    cmds += [["spread", "build"] + b for b in builds]
    cmds += [["spread", "build"] + builds[-1] + ["--out", "{tmp}/k5.pqf"],
             ["spread", "build", "--kind", "table", "--table", "{tmp}/k5.pqf"],
             ["spread", "validate", "--pqf", "{tmp}/k5.pqf"],
             ["spread", "transpose", "--pqf", "{tmp}/k5.pqf",
              "--out", "{tmp}/k5t.pqf"],
             ["spread", "bent", "--pqf", "{tmp}/k5.pqf", "--g", "sqrt"],
             ["spread", "knuth", "--pqf", "kantor:3:1:1:0",
              "--out-dir", "{tmp}/orbit"]]
    for pqf in PQFS:
        cmds += [["spread", "validate", "--pqf", pqf],
                 ["spread", "transpose", "--pqf", pqf],
                 ["spread", "knuth", "--pqf", pqf]]
        for g in ("square-star", "sqrt"):
            for mu in (None, "1", "5"):
                cmds.append(["spread", "bent", "--pqf", pqf, "--g", g]
                            + (["--mu", mu] if mu else []))
    for mu in ("0", "5"):
        cmds.append(["spread", "bent", "--pqf", "field:3", "--g", "sqrt",
                     "--mu", mu, "--out-dir", f"{{tmp}}/bent_mu{mu}"])
    cmds += [["spread", "bent", "--pqf", "field:3", "--g",
              "table:{tmp}/g_sqrt_star5.txt", "--mu", "5",
              "--out-dir", "{tmp}/bent_table_mu5"],
             ["spread", "bent", "--pqf", "field:3", "--g",
              "table:{tmp}/g_sqrt_star5.txt"],
             ["spread", "bent", "--pqf", "field:5", "--g",
              "table:{tmp}/g_perm32.txt"],
             ["spread", "bent", "--pqf", "field:4", "--g", "sqrt",
              "--mu", "16"],
             ["spread", "bent", "--pqf", "field:1", "--g", "sqrt"]]
    # the dim-9 and dim-10 carriers: each build dumps its whole product table
    cmds += [["spread", "build"] + b for b in
             (["--kind", "field", "--m", "10"],
              ["--kind", "luneburg", "--m", "5"],
              ["--kind", "kantor", "--m", "9", "--chain", "1",
               "--lambdas", "1", "--zetas", "0"])]
    cmds.append(["spread", "bent", "--pqf", "field:10", "--g", "sqrt"])
    # the m = 9 shapes of the univariate workload at the default a: the two
    # bent niho families, the non-bent quadratic with its witness point,
    # and the closed-form and Walsh duals, each checked by another route
    sub9 = str(int(field_make(9).embed[2]))
    cmds += [["niho", "--family", "binomial_3", "--m", "9"],
             ["niho", "--family", "leander_r", "--m", "9", "--r", "2"],
             ["niho", "--family", "quadratic", "--m", "9", "--a-index", sub9],
             ["dual", "--family", "leander_r", "--m", "9", "--r", "2",
              "--method", "budaghyan", "--cross-check", "walsh"],
             ["dual", "--family", "binomial_3", "--m", "9",
              "--method", "walsh", "--cross-check", "product"]]
    return cmds


def workload_commands(tmp: Path, seen: set[tuple[str, ...]]
                      ) -> tuple[list[list[str]], dict[str, str]]:
    """(commands, input files) of the benchmark workloads at each seed,
    generated by perfbench's own generator into `tmp`; `seen` holds the
    commands already in the corpus, less any `--seed N` prefix."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    cmds: list[list[str]] = []
    inputs: dict[str, str] = {}
    for name in workloads.GENERATORS:
        for seed in WORKLOAD_SEEDS:
            d = tmp / f"{name}{seed}"
            d.mkdir()
            timed, probes = workloads.generate(name, seed, d)
            for op in timed + probes:
                argv = list(op.argv)
                key = tuple(argv[2:])              # less `--seed N`
                if key in seen or ("--catalog" in argv
                                   and argv[argv.index("--m") + 1] == "8"):
                    continue
                seen.add(key)
                cmds.append([a.replace(str(tmp), "{tmp}") for a in argv])
            inputs.update((p.relative_to(tmp).as_posix(), p.read_text())
                          for p in sorted(d.iterdir()))
    return cmds, inputs


def replay(corpus: dict, tmp: Path) -> list[dict]:
    write_inputs(corpus["inputs"], tmp)
    return [run(entry["argv"], tmp) for entry in corpus["commands"]]


def plan() -> tuple[dict[str, str], list[list[str]]]:
    """(input files, argv list) of the corpus as the generators give them
    today; runs no command."""
    inputs = _inputs()
    grid = commands()
    with tempfile.TemporaryDirectory() as d:
        bench, bench_inputs = workload_commands(
            Path(d), {tuple(argv) for argv in grid})
    inputs.update(bench_inputs)
    return inputs, grid + bench


def main() -> int:
    inputs, argvs = plan()
    with tempfile.TemporaryDirectory() as d:
        entries = replay({"inputs": inputs,
                          "commands": [{"argv": argv} for argv in argvs]},
                         Path(d))
    # one command per line, so that a changed digest is a one-line diff
    CORPUS.write_text(
        '{"inputs": ' + json.dumps(inputs, indent=1) + ',\n"commands": [\n'
        + ",\n".join(json.dumps(e) for e in entries) + "\n]}\n")
    print(f"{len(entries)} commands written to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
