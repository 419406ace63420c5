"""The benchmark's three workloads: seeded generation of CLI operations
and the checks that decide whether each operation's outcome is correct.

Every operation is one `ovalbent` command line.  Its `check` receives the
exit code and captured output and returns None when the outcome is the
expected one, otherwise a one-line reason.  Expectations are derived from
the library's stated identities (e_size = q(q+1)/2, flat Walsh spectrum,
collinearity through the scalar field API), never from stored outputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ovalbent import geometry, niho
from ovalbent.gf import field_make

# m values whose cold field tables make up each workload's set-up cost.
# The spread commands never call field_make: each prequasifield builds its
# own uncached BinaryField, inside the command.  Their set-up is the import.
SETUP_MS = {"univariate": (4, 5, 8, 9), "ovals": (4, 7, 8), "spreads": ()}

# non-ovals per field size; their first collinear triples sit at fixed
# depths of the scan (the middle of each quarter), so that the reject time
# measures the early exit and not the luck of one draw
REJECTS_PER_M = 4

# commands that take milliseconds run this many times per pass, so that
# their medians rest on enough samples to be steady
CHEAP_REPEAT = 10


@dataclass(frozen=True)
class Result:
    code: int | None          # None when the command raised
    stdout: str
    stderr: str
    error: str | None = None  # repr of the exception, if any


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: str                                # accept | reject | probe
    check: Callable[[Result], str | None]
    size: str = ""                             # small | large | ""
    repeat: int = 1                            # runs per pass

    @property
    def name(self) -> str:
        return " ".join(self.argv[2:])  # without the leading --seed N


# ---------------------------------------------------------------------------
# report parsing and shared checks
# ---------------------------------------------------------------------------

def _report(text: str) -> dict:
    """The JSON report at the start of a stream (stderr adds a timing line)."""
    return json.JSONDecoder().raw_decode(text.lstrip())[0]


def _exit(res: Result, code: int) -> str | None:
    if res.code is None:
        return f"raised {res.error}"
    if res.code != code:
        return f"exit {res.code}, expected {code}"
    return None


def _all_true(verdicts: dict, what: str) -> str | None:
    if not verdicts:
        return f"no {what}"
    bad = sorted(k for k, v in verdicts.items() if v is not True)
    return f"{what} not true: {bad}" if bad else None


def _first(*checks: Callable[[], str | None]) -> str | None:
    for c in checks:
        err = c()
        if err:
            return err
    return None


def probe(accept: Callable[[Result], str | None]) -> Callable[[Result], str | None]:
    """Out-of-domain input: exit 2, or exit 0 with every verdict true."""
    def check(res: Result) -> str | None:
        if res.code == 2:
            return None
        if res.code == 0:
            return accept(res)
        return _exit(res, 2)
    return check


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

def _half_trace_indices(m: int) -> np.ndarray:
    """K-indices a with a + a^q = 1."""
    p = field_make(m)
    xs = np.arange(p.K.size)
    return np.nonzero(p.project_table()[xs ^ p.conj_table()] == 1)[0]


def _subfield_indices(m: int) -> list[int]:
    """Nonzero K-indices of the embedded subfield (a + a^q = 0)."""
    return [int(v) for v in field_make(m).embed[1:]]


def accept_niho(m: int) -> Callable[[Result], str | None]:
    q = 1 << m

    def check(res: Result) -> str | None:
        def body():
            rep = _report(res.stdout)
            counts = rep["counts"]
            spectrum = {int(k) for k in counts.get("spectrum", {})}
            return _first(
                lambda: _all_true(rep["verdicts"], "verdicts"),
                lambda: None if counts.get("e_size") == q * (q + 1) // 2
                else f"e_size {counts.get('e_size')} != q(q+1)/2",
                lambda: None if spectrum and spectrum <= {q, -q}
                else f"Walsh spectrum {sorted(spectrum)} not in +-2^m")
        return _first(lambda: _exit(res, 0), body)
    return check


def accept_dual(res: Result) -> str | None:
    return _first(lambda: _exit(res, 0),
                  lambda: _all_true(_report(res.stdout)["verdicts"], "verdicts"))


def reject_niho_quadratic(m: int, a: int) -> Callable[[Result], str | None]:
    """g = T(a) vanishes on the circle: the witness point must lie on a
    number of lines L(u, T(a)) other than 0 or 2, recounted here."""
    def check(res: Result) -> str | None:
        def body():
            rep = _report(res.stdout)
            if rep["verdicts"].get("bent") is not False or \
                    rep["verdicts"].get("line_oval") is not False:
                return "verdicts bent/line_oval should be false"
            x = rep["witnesses"].get("line_oval_point")
            if x is None:
                return "no line_oval_point witness"
            p = field_make(m)
            ta = p.trace_rel(a)
            cover = sum(p.trace_rel(p.K.mul(int(u), x)) == ta for u in p.S)
            if cover in (0, 2) or cover != rep["counts"].get("witness_cover"):
                return f"witness {x} lies on {cover} lines"
            return None
        return _first(lambda: _exit(res, 1), body)
    return check


def univariate(rng: random.Random, workdir: Path, cli_seed: int) -> list[Op]:
    ops: list[Op] = []
    pre = ("--seed", str(cli_seed))

    def niho_op(fam: str, m: int, size: str = "") -> Op:
        a = int(rng.choice(_half_trace_indices(m)))
        r = ("--r", "2") if fam == "leander_r" else ()
        return Op(pre + ("niho", "--family", fam, "--m", str(m),
                         "--a-index", str(a)) + r, "accept", accept_niho(m), size,
                  CHEAP_REPEAT if size == "small" else 1)

    def families(m: int) -> list[str]:
        fams = ["quadratic", "binomial_3"]
        fams.append("binomial_1_6" if m % 2 == 0 else "leander_r")
        return fams

    for m in (4, 5):
        ops += [niho_op(f, m, "small") for f in families(m)]
    ops += [niho_op(f, 8) for f in families(8)]
    ops += [niho_op("binomial_3", 9, "large"), niho_op("leander_r", 9, "large")]
    for fam, method, cross in (("binomial_3", "walsh", "product"),
                               ("leander_r", "budaghyan", "chi-swap")):
        a = int(rng.choice(_half_trace_indices(9)))
        r = ("--r", "2") if fam == "leander_r" else ()
        ops.append(Op(pre + ("dual", "--family", fam, "--m", "9",
                             "--a-index", str(a)) + r
                      + ("--method", method, "--cross-check", cross),
                      "accept", accept_dual, "large"))
    for m in (8, 9):
        a = rng.choice(_subfield_indices(m))
        ops.append(Op(pre + ("niho", "--family", "quadratic", "--m", str(m),
                             "--a-index", str(a)),
                      "reject", reject_niho_quadratic(m, a),
                      *(("large", 3) if m == 9 else ("", CHEAP_REPEAT))))
    return ops


# ---------------------------------------------------------------------------
# ovals
# ---------------------------------------------------------------------------

def accept_oval_verify(n_points: int, n_infinite: int) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        def body():
            rep = _report(res.stdout)
            counts = rep["counts"]
            if (counts["points"], counts["infinite"]) != (n_points, n_infinite):
                return f"counts {counts} != ({n_points}, {n_infinite})"
            return _all_true(rep["verdicts"], "verdicts")
        return _first(lambda: _exit(res, 0), body)
    return check


def accept_convert(res: Result) -> str | None:
    return _first(lambda: _exit(res, 0),
                  lambda: _all_true(_report(res.stderr)["verdicts"], "verdicts"))


def collinear(m: int, a: int, b: int, c: int) -> bool:
    """(b - a)/(c - a) in the embedded subfield, through the scalar API."""
    p = field_make(m)
    return p.in_subfield(p.K.div(b ^ a, c ^ a))


def reject_oval(m: int, points: frozenset[int]) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        def body():
            rep = _report(res.stdout)
            if rep["verdicts"].get("no_three_collinear") is not False:
                return "verdict no_three_collinear should be false"
            w = rep["witnesses"].get("collinear_triple")
            if not (isinstance(w, list) and len(w) == 3
                    and all(isinstance(v, int) and v in points for v in w)
                    and len(set(w)) == 3):
                return f"witness {w} is not three distinct affine points of the set"
            if not collinear(m, *w):
                return f"witness {w} is not collinear"
            return None
        return _first(lambda: _exit(res, 1), body)
    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def non_oval(m: int, catalog: str, depth: float, rng: random.Random):
    """A catalog hyperoval with one seeded point replaced.

    The new point p' sits on the secant through 0 and a point b whose rank
    is about `depth` of the way through the sorted set, with p' > b.  No
    other triple through p' contains 0, so the scan's first collinear
    triple is (0, b, p') and its cost grows with the rank of b.
    """
    p = field_make(m)
    pts = sorted(geometry.catalog_oval(catalog, p).points)
    n = len(pts)
    for rank in range(max(1, int(depth * (n - 1))), n):
        b = pts[rank]
        cands = [p.K.mul(b, int(lam)) for lam in p.embed[2:]]
        cands = [c for c in cands if c > b]
        if cands:
            break
    new = rng.choice(cands)
    drop = rng.choice([v for v in pts if v not in (0, b)])
    return frozenset(set(pts) - {drop} | {new})


def ovals(rng: random.Random, workdir: Path, cli_seed: int) -> list[Op]:
    ops: list[Op] = []
    pre = ("--seed", str(cli_seed))

    def catalogs(m: int):
        return [c for c in geometry.CATALOG_NAMES if m % 2 == 0 or c != "adelaide"]

    def verify(m: int, size: str = ""):
        q = 1 << m
        return [Op(pre + ("oval", "verify", "--catalog", c, "--m", str(m)),
                   "accept", accept_oval_verify(q + 2, 0), size,
                   CHEAP_REPEAT if size == "small" else 1)
                for c in catalogs(m)]

    ops += verify(4, "small") + verify(7)
    p7 = field_make(7)
    for fam, r in (("binomial_3", None), ("leander_r", 2)):
        a = int(rng.choice(_half_trace_indices(7)))
        g = niho.g_of_spec(niho.NihoSpec(fam, 7, a, None, r), p7)
        oval = geometry.oval_from_g(g, p7)
        path = _write(workdir / f"oval_{fam}.json", geometry.oval_to_json(oval, p7))
        ops.append(Op(pre + ("oval", "verify", "--m", "7", "--json", path),
                      "accept", accept_oval_verify(len(oval.points),
                                                   len(oval.infinite))))

    cat = rng.choice(catalogs(7))
    nonzero = geometry.catalog_oval(cat, p7).points - {0}
    pts_doc = geometry.oval_to_json(geometry.Oval(nonzero, frozenset()), p7)
    lines = geometry.dual_points_to_lines(sorted(nonzero), p7)
    ops.append(Op(pre + ("oval", "convert", "--m", "7", "--points-json",
                         _write(workdir / "convert_points.json", pts_doc)),
                  "accept", accept_convert))
    ops.append(Op(pre + ("oval", "convert", "--m", "7", "--lines-json",
                         _write(workdir / "convert_lines.json",
                                geometry.line_oval_to_json(lines, p7))),
                  "accept", accept_convert))
    ops += verify(8, "large")

    for m in (7, 8):
        p = field_make(m)
        for i in range(REJECTS_PER_M):
            pts = non_oval(m, rng.choice(catalogs(m)), (i + 0.5) / REJECTS_PER_M, rng)
            path = _write(workdir / f"non_oval_{m}_{i}.json",
                          geometry.oval_to_json(geometry.Oval(pts, frozenset()), p))
            ops.append(Op(pre + ("oval", "verify", "--m", str(m), "--json", path),
                          "reject", reject_oval(m, pts),
                          "large" if m == 8 else "", CHEAP_REPEAT))
    return ops


# ---------------------------------------------------------------------------
# spreads
# ---------------------------------------------------------------------------

def accept_spread_bent(size: int) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        def body():
            rep = _report(res.stdout)["report"]
            flags = {k: rep.get(k) for k in ("bent", "criterion", "verdicts_agree",
                                             "dual_routes_agree", "lineoval_ok")}
            return _first(
                lambda: _all_true(flags, "verdicts"),
                lambda: None if rep.get("e_size") == size * size // 2 + size // 2
                else f"e_size {rep.get('e_size')} != size^2/2 + size/2")
        return _first(lambda: _exit(res, 0), body)
    return check


def reject_spread_bent(res: Result) -> str | None:
    def body():
        rep = _report(res.stdout)["report"]
        if rep.get("verdicts_agree") is not True:
            return "verdicts_agree should be true"
        if rep.get("bent") is not False or rep.get("criterion") is not False:
            return "bent and criterion should be false"
        if not rep.get("criterion_witness"):
            return "no criterion witness"
        return None
    return _first(lambda: _exit(res, 1), body)


def _report_flags(*keys: str) -> Callable[[Result], str | None]:
    """Exit 0 and the named report fields (dotted paths) all true."""
    def check(res: Result) -> str | None:
        def body():
            rep = _report(res.stdout)
            flags = {}
            for k in keys:
                v = rep
                for part in k.split("."):
                    v = v.get(part) if isinstance(v, dict) else None
                flags[k] = v
            return _all_true(flags, "verdicts")
        return _first(lambda: _exit(res, 0), body)
    return check


def spreads(rng: random.Random, workdir: Path, cli_seed: int) -> list[Op]:
    pre = ("--seed", str(cli_seed))

    def bent(pqf: str, size: int, tag: str = "") -> Op:
        return Op(pre + ("spread", "bent", "--pqf", pqf, "--g", "sqrt"),
                  "accept", accept_spread_bent(size), tag,
                  CHEAP_REPEAT if tag == "small" else 1)

    k7 = str(workdir / "kantor7.pqf")
    ops = [bent("field:4", 16, "small"), bent("luneburg:3", 64, "small"),
           bent("kantor:5:1:1:0", 32), bent("field:8", 256),
           bent("kantor:7:1:1:0", 128), bent("luneburg:5", 1024, "large"),
           Op(pre + ("spread", "build", "--kind", "kantor", "--m", "7",
                     "--chain", "1", "--lambdas", "1", "--zetas", "0", "--out", k7),
              "accept", _report_flags("validation.axioms_ok")),
           Op(pre + ("spread", "validate", "--pqf", k7), "accept",
              _report_flags("validation.axioms_ok", "spread_partition_ok")),
           Op(pre + ("spread", "transpose", "--pqf", "kantor:7:1:1:0",
                     "--out", str(workdir / "kantor7t.pqf")),
              "accept", _report_flags("involution_ok", "perpendicular_ok")),
           Op(pre + ("spread", "knuth", "--pqf", "kantor:5:1:1:0"), "accept",
              _report_flags("dtd_equals_tdt"))]

    mu = rng.randrange(1, 256)
    ops.append(Op(pre + ("spread", "bent", "--pqf", "field:8", "--g", "sqrt",
                         "--mu", str(mu)), "reject", reject_spread_bent))
    for pqf, size in (("field:8", 256), ("kantor:7:1:1:0", 128)):
        perm = list(range(size))
        rng.shuffle(perm)
        path = _write(workdir / f"g_{pqf.split(':')[0]}.txt",
                      " ".join(map(str, perm)) + "\n")
        ops.append(Op(pre + ("spread", "bent", "--pqf", pqf, "--g", f"table:{path}"),
                      "reject", reject_spread_bent))
    return ops


# ---------------------------------------------------------------------------
# domain probes, shared by every workload
# ---------------------------------------------------------------------------

def probes(rng: random.Random, cli_seed: int) -> list[Op]:
    """Inputs outside the supported domain: the exit-code contract asks
    for exit 2 (or a fully verified exit 0), never a traceback."""
    pre = ("--seed", str(cli_seed))
    k4 = 1 << 8
    return [
        Op(pre + ("niho", "--family", "quadratic", "--m", "10"), "probe",
           probe(accept_niho(10))),
        Op(pre + ("niho", "--family", "quadratic", "--m", "4",
                  "--a-index", str(rng.randrange(k4, 2 * k4))),
           "probe", probe(accept_niho(4))),
        Op(pre + ("spread", "bent", "--pqf", "field:4", "--g", "sqrt",
                  "--mu", str(rng.randrange(16, 32))),
           "probe", probe(accept_spread_bent(16))),
    ]


GENERATORS = {"univariate": univariate, "ovals": ovals, "spreads": spreads}


def generate(workload: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """(timed operations, untimed domain probes) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    cli_seed = rng.randrange(1 << 31)
    return GENERATORS[workload](rng, workdir, cli_seed), probes(rng, cli_seed)
