"""Command-line front end.

Subcommands: niho, oval, dual, ea, spread (build/validate/transpose/
knuth/bent).  Reports are JSON with sorted keys on stdout (on stderr when
a table goes to stdout), so output bytes are deterministic for fixed
inputs; timing goes to stderr.  Table files and streams are written and
read a row at a time (`spread.write_pqf`, `spread.read_pqf`).

Exit codes: 0 all verdicts pass, 1 a verification failed (the report
carries a witness), 2 bad input (an argparse error, `inputs.DomainError`,
`OSError` or undecodable input; m outside 2..9 and carriers of GF(2)
dimension outside 1..12 included), 3 any other exception, an internal
error (traceback on stderr).  A failed line-oval cover is a verdict with
its witness (`geometry.NotALineOval`), never bad input, even on a bent f.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import boolfn, geometry, niho, spread, spreadbent
from .gf import field_make
from .inputs import DomainError, plain_int, plain_ints


def _field_info(params) -> dict:
    return {"m": params.m, "poly_f": params.F.poly, "poly_k": params.K.poly,
            "gamma": params.gamma}


def _emit(report: dict, stream=None) -> None:
    print(json.dumps(report, sort_keys=True, indent=2), file=stream or sys.stdout)


def _out_dir(args) -> Path | None:
    if args.out_dir is None:
        return None
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# niho
# ---------------------------------------------------------------------------

def _spec_from_args(args) -> niho.NihoSpec:
    if getattr(args, "spec_json", None):
        return niho.NihoSpec.from_json(Path(args.spec_json).read_text())
    return niho.NihoSpec(args.family, args.m, args.a_index, args.alpha2_index,
                         args.r)


def cmd_niho(args) -> int:
    spec = _spec_from_args(args)
    params = field_make(spec.m)
    rs = spec.resolve(params)
    g = niho.g_of_spec(spec, params)

    f = niho.bent_from_g(g, params)
    verdicts = {"bent": boolfn.is_bent(f)}
    counts, witnesses, artifacts = {}, {}, {}
    # the line-oval verdict and its witness, read off the one cover on every g
    try:
        oval = niho.line_oval_from_g(g, params)
    except geometry.NotALineOval as e:
        oval = None
        witnesses["line_oval_point"] = e.point
        counts["witness_cover"] = e.count
    verdicts["line_oval"] = oval is not None

    if all(verdicts.values()):
        counts["e_size"] = oval.e_size()
        dw = niho.dual_walsh(f, params)
        dp = niho.dual_product_formula(oval, params)
        verdicts["dual_walsh_eq_product"] = dw == dp
        if niho.closed_dual_obstacle(rs, params) is None:
            db = niho.dual_budaghyan(spec, params)
            verdicts["dual_walsh_eq_budaghyan"] = dw == db
        counts["degree"] = boolfn.degree(f)
        counts["spectrum"] = {str(k): v for k, v in
                              boolfn.walsh_transform(f).histogram().items()}
        d = _out_dir(args)
        if d:
            boolfn.save_truth_table(f, d / "truth_table.txt")
            niho.save_g_table(g, d / "g_table.csv")
            (d / "line_oval.json").write_text(
                geometry.line_oval_to_json(oval.lines, params) + "\n")
            boolfn.save_truth_table(dw, d / "dual.txt")
            artifacts = {"truth_table": str(d / "truth_table.txt"),
                         "g_table": str(d / "g_table.csv"),
                         "line_oval": str(d / "line_oval.json"),
                         "dual": str(d / "dual.txt")}

    report = {"command": "niho", "spec": json.loads(spec.to_json()),
              "field": _field_info(params), "verdicts": verdicts,
              "counts": counts, "witnesses": witnesses, "artifacts": artifacts}
    _emit(report)
    return 0 if all(verdicts.values()) else 1


# ---------------------------------------------------------------------------
# oval
# ---------------------------------------------------------------------------

def cmd_oval(args) -> int:
    params = field_make(args.m)
    if args.action == "verify":
        if args.catalog:
            oval = geometry.catalog_oval(args.catalog, params)
        elif args.json:
            m, oval = geometry.oval_from_json(Path(args.json).read_text())
            if m != args.m:
                raise DomainError("field size mismatch between --m and the file")
        else:
            raise DomainError("verify needs --catalog or --json")
        ok, witness = geometry.verify_oval(oval.points, params, oval.infinite)
        report = {"command": "oval verify", "field": _field_info(params),
                  "source": args.catalog or args.json,
                  "counts": {"points": len(oval.points),
                             "infinite": len(oval.infinite)},
                  "verdicts": {"no_three_collinear": ok},
                  "witnesses": {"collinear_triple": witness}}
        _emit(report)
        return 0 if ok else 1

    # convert (the point/line duality)
    if args.points_json:
        m, oval = geometry.oval_from_json(Path(args.points_json).read_text())
        if m != args.m:
            raise DomainError("conversion needs points over the same field")
        lines = geometry.dual_oval_to_lines(oval, params)
        ok, witness = geometry.verify_no_three_concurrent(lines, params)
        print(geometry.line_oval_to_json(lines, params))
        direction, verdict, wkey = "points_to_lines", "line_oval", "concurrency"
    elif args.lines_json:
        lines = geometry.line_oval_from_json(Path(args.lines_json).read_text(),
                                             params)
        oval = geometry.dual_lines_to_oval(lines, params)
        ok, witness = geometry.verify_oval(oval.points, params, oval.infinite)
        print(geometry.oval_to_json(oval, params))
        direction, verdict, wkey = "lines_to_points", "oval", "collinear_triple"
    else:
        raise DomainError("convert needs --points-json or --lines-json")
    _emit({"command": "oval convert", "direction": direction,
           "verdicts": {verdict: ok}, "witnesses": {wkey: witness}},
          sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def cmd_dual(args) -> int:
    spec = _spec_from_args(args)
    params = field_make(spec.m)
    g = niho.g_of_spec(spec, params)
    spectrum = boolfn.walsh_transform(niho.bent_from_g(g, params))
    if not spectrum.is_bent():
        raise DomainError("the requested spec is not bent; no dual exists")
    report = {"command": "dual", "method": args.method, "cross_check": args.cross_check,
              "spec": json.loads(spec.to_json()), "field": _field_info(params)}
    try:    # one line oval for the routes that read it
        oval = (niho.line_oval_from_g(g, params)
                if {"product", "chi-swap"} & {args.method, args.cross_check} else None)
    except geometry.NotALineOval as e:      # the cover contradicts the Walsh verdict
        _emit(report | {"verdicts": {"bent": True, "line_oval": False},
                        "witnesses": {"line_oval_point": e.point},
                        "counts": {"witness_cover": e.count}})
        return 1

    def dual_by(method: str) -> boolfn.BooleanFunction:
        if method == "walsh":
            return spectrum.dual(params.tr_mask_table())
        if method == "product":
            return niho.dual_product_formula(oval, params)
        if method == "budaghyan":
            return niho.dual_budaghyan(spec, params)
        return boolfn.BooleanFunction(params.n, 1 ^ oval.e_table)   # chi-swap

    d1 = dual_by(args.method)
    verdicts = {}
    if args.cross_check:
        d2 = dual_by(args.cross_check)
        verdicts[f"{args.method}_eq_{args.cross_check}"] = d1 == d2
    d = _out_dir(args)
    artifacts = {}
    if d:
        boolfn.save_truth_table(d1, d / "dual.txt")
        artifacts["dual"] = str(d / "dual.txt")
    _emit(report | {"verdicts": verdicts, "artifacts": artifacts})
    return 0 if all(verdicts.values()) else 1


# ---------------------------------------------------------------------------
# ea
# ---------------------------------------------------------------------------

def cmd_ea(args) -> int:
    if args.table:
        f = boolfn.load_truth_table(args.table)
        source = args.table
    else:
        spec = _spec_from_args(args)
        params = field_make(spec.m)
        f = niho.bent_from_g(niho.g_of_spec(spec, params), params)
        source = spec.to_json()
    deg = boolfn.degree(f)
    spectrum = boolfn.walsh_transform(f)
    report = {"command": "ea", "source": source, "k": f.k,
              "degree": deg,
              "spectrum": {str(k): v for k, v in spectrum.histogram().items()},
              "bent": spectrum.is_bent() if f.k % 2 == 0 else False}
    if deg <= 2:
        report["quadratic_rank"] = boolfn.quadratic_rank(f, deg)
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# spread
# ---------------------------------------------------------------------------

# the fields each construction kind reads: after the kind in a `--pqf` kind
# spec (field:m, kantor:m:chain:lambdas:zetas), and as `spread build` flags
_KIND_FIELDS = {"field": ("m",), "kantor": ("m", "chain", "lambdas", "zetas"),
                "luneburg": ("m",), "table": ("table",)}


def _kind_pqf(kind: str, m: int, chain: str | None = None,
              lambdas: str | None = None, zetas: str | None = None
              ) -> spread.Prequasifield:
    """The prequasifield of a construction kind other than table; chain,
    lambdas and zetas are comma lists, read by kantor only."""
    if kind == "field":
        return spread.field_pqf(m)
    if kind == "luneburg":
        return spread.luneburg(m)
    return spread.kantor_chain(m, _csv_ints(chain), _csv_ints(lambdas),
                               _csv_ints(zetas))


def _read_pqf(path: str) -> spread.Prequasifield:
    """A table file, '-' for stdin, or a kind spec like 'field:3',
    'luneburg:3', 'kantor:3:1:1:0' (m:chain:lambdas:zetas)."""
    if path == "-":
        return spread.read_pqf(sys.stdin)
    if ":" in path and not Path(path).exists():
        kind, *fields = path.split(":")
        if kind not in _KIND_FIELDS or kind == "table":
            raise DomainError(f"unknown prequasifield kind {kind!r}")
        if len(fields) != len(_KIND_FIELDS[kind]):
            raise DomainError(f"a {kind} kind spec has {len(_KIND_FIELDS[kind])} "
                              f"field(s) after the kind, got {len(fields)}")
        return _kind_pqf(kind, plain_int(fields[0]), *fields[1:])
    return spread.load_pqf(path)


def _csv_ints(text: str | None) -> list[int]:
    return [plain_int(v) for v in text.split(",")] if text else []


def _build_pqf(args) -> spread.Prequasifield:
    for flag in ("m", "chain", "lambdas", "zetas", "table"):
        if getattr(args, flag) is not None and flag not in _KIND_FIELDS[args.kind]:
            raise DomainError(f"--kind {args.kind} does not read --{flag}")
    if args.kind == "table":
        if not args.table:
            raise DomainError("--kind table needs --table FILE")
        return _read_pqf(args.table)
    if args.m is None:
        raise DomainError(f"--kind {args.kind} needs --m")
    return _kind_pqf(args.kind, args.m, args.chain, args.lambdas, args.zetas)


def _emit_table(Q: spread.Prequasifield, out: str | None, report: dict) -> None:
    """The table to `out` (report to stdout), else to stdout (report to stderr)."""
    if out:
        spread.save_pqf(Q, out)
        _emit(report)
    else:
        spread.write_pqf(Q, sys.stdout)
        _emit(report, sys.stderr)


def cmd_spread_build(args) -> int:
    Q = _build_pqf(args)
    rep = spread.validate_prequasifield(Q).as_dict()
    report = {"command": "spread build", "kind": args.kind, "m": Q.m,
              "shape": Q.shape, "size": Q.size, "validation": rep}
    if args.out:
        report["artifacts"] = {"table": args.out}
    _emit_table(Q, args.out, report)
    return 0 if rep["axioms_ok"] else 1


def cmd_spread_validate(args) -> int:
    Q = _read_pqf(args.pqf)
    rep = spread.validate_prequasifield(Q).as_dict()
    ok, wit = spread.verify_spread(Q)
    report = {"command": "spread validate", "m": Q.m, "shape": Q.shape,
              "validation": rep,
              "spread_partition_ok": ok,
              "spread_witness": wit}
    _emit(report)
    return 0 if rep["axioms_ok"] and ok else 1


def _valid_pqf(path: str) -> spread.Prequasifield:
    """The prequasifield at `path`; bad input when its axioms fail, since
    the commands that take it are defined only for prequasifields."""
    Q = _read_pqf(path)
    rep = spread.validate_prequasifield(Q)
    if not rep.axioms_ok:
        raise DomainError(f"prequasifield axioms fail: {rep.failures}")
    return Q


def cmd_spread_transpose(args) -> int:
    Q = _valid_pqf(args.pqf)
    Qt = Q.transposed()
    # a linear table is fixed by its basis rows: Q^tt = Q iff Q, Q^t are perpendicular
    perp = spread.spreads_perpendicular(Q, Qt)
    report = {"command": "spread transpose", "m": Q.m, "shape": Q.shape,
              "involution_ok": perp, "perpendicular_ok": perp,
              "symplectic_fixed_point": spread.is_symplectic(Q)}
    _emit_table(Qt, args.out, report)
    return 0 if perp else 1


def cmd_spread_knuth(args) -> int:
    Q = _read_pqf(args.pqf)
    items, dtd_eq = spread.knuth_orbit(Q)
    d = _out_dir(args)
    artifacts = {}
    if d:
        for word, pq in items:
            path = d / f"orbit_{word or 'id'}.pqf"
            spread.save_pqf(pq, path)
            artifacts[word or "id"] = str(path)
    report = {"command": "spread knuth", "orbit_words": [w or "id" for w, _ in items],
              "orbit_size": len(items), "dtd_equals_tdt": dtd_eq,
              "artifacts": artifacts}
    _emit(report)
    return 0 if dtd_eq and len(items) <= 6 else 1


def _g_table_from_flag(flag: str, Q: spread.Prequasifield) -> np.ndarray:
    if flag == "square-star":
        return spreadbent.g_square_star(Q)
    if flag in ("sqrt", "sqrt-diag"):
        return spread.sqrt_diag_g_table(Q)
    if flag.startswith("table:"):
        text = Path(flag[len("table:"):]).read_text()
        # the digit rule per stripped line; SpreadBentSpec checks count and range
        return plain_ints(
            " ".join(line.strip() for line in text.split("\n")),
            "G values must be plain decimal digits and spaces")
    raise DomainError(f"unknown --g flag {flag!r}")


def cmd_spread_bent(args) -> int:
    Q = _valid_pqf(args.pqf)
    G = _g_table_from_flag(args.g, Q)
    spec = spreadbent.SpreadBentSpec(Q, G, args.mu)
    # the verdicts are read on the mu-normalized form
    analysis, f, dual = spreadbent.analyze(spec)
    d = _out_dir(args)
    artifacts = {}
    if analysis["bent"] and d:
        if spec.mu:         # the artifacts hold the requested function
            f = spreadbent.bent_bivariate(spec)
            dual = spreadbent.dual_walsh(f, Q)
        boolfn.save_truth_table(f, d / "truth_table.txt")
        boolfn.save_truth_table(dual, d / "dual.txt")
        artifacts = {"truth_table": str(d / "truth_table.txt"),
                     "dual": str(d / "dual.txt")}
    report = {"command": "spread bent", "m": Q.m, "shape": Q.shape,
              "g": args.g, "mu": args.mu, "report": analysis,
              "artifacts": artifacts}
    _emit(report)
    ok = analysis["bent"] and analysis.get("dual_routes_agree", False) \
        and analysis.get("lineoval_ok", False)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=niho.FAMILIES)
    p.add_argument("--m", type=plain_int)
    p.add_argument("--a-index", type=plain_int, default=None)
    p.add_argument("--alpha2-index", type=plain_int, default=None)
    p.add_argument("--r", type=plain_int, default=None)
    p.add_argument("--spec-json", default=None,
                   help="JSON file {family, m, a_index?, alpha2_index?, r?} "
                        "instead of flags")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand stores its
    name in `cmd`; `main` looks up `cmd_<name>` at call time."""
    ap = argparse.ArgumentParser(
        prog="ovalbent",
        description="bent functions linear on spreads, their duals, and the "
                    "associated ovals and line ovals")
    ap.add_argument("--seed", type=plain_int, default=0,
                    help="has no effect (every check is exhaustive); kept "
                         "so that existing scripts keep working")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("niho", help="build and verify a Niho bent function")
    _add_spec_flags(p)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(cmd="niho")

    p = sub.add_parser("oval", help="verify or convert ovals and line ovals")
    p.add_argument("action", choices=["verify", "convert"])
    p.add_argument("--m", type=plain_int, required=True)
    p.add_argument("--catalog", choices=geometry.CATALOG_NAMES, default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--points-json", default=None)
    p.add_argument("--lines-json", default=None)
    p.set_defaults(cmd="oval")

    p = sub.add_parser("dual", help="dual of a Niho bent function by route")
    _add_spec_flags(p)
    p.add_argument("--method", required=True,
                   choices=["walsh", "product", "budaghyan", "chi-swap"])
    p.add_argument("--cross-check", default=None,
                   choices=["walsh", "product", "budaghyan", "chi-swap"])
    p.add_argument("--out-dir", default=None)
    p.set_defaults(cmd="dual")

    p = sub.add_parser("ea", help="EA-equivalence invariants of a function")
    _add_spec_flags(p)
    p.add_argument("--table", default=None, help="truth-table file")
    p.set_defaults(cmd="ea")

    p = sub.add_parser("spread", help="prequasifields and bivariate bent functions")
    ssub = p.add_subparsers(dest="spread_command", required=True)

    b = ssub.add_parser("build", help="construct a prequasifield table")
    b.add_argument("--kind", required=True, choices=list(_KIND_FIELDS))
    b.add_argument("--m", type=plain_int)
    b.add_argument("--chain", help="comma list of subfield degrees")
    b.add_argument("--lambdas", help="comma list of F-indices")
    b.add_argument("--zetas", help="comma list of F-indices")
    b.add_argument("--table", default=None)
    b.add_argument("--out", default=None)
    b.set_defaults(cmd="spread_build")

    v = ssub.add_parser("validate", help="check prequasifield axioms")
    v.add_argument("--pqf", default="-")
    v.set_defaults(cmd="spread_validate")

    t = ssub.add_parser("transpose", help="transpose prequasifield")
    t.add_argument("--pqf", default="-")
    t.add_argument("--out", default=None)
    t.set_defaults(cmd="spread_transpose")

    k = ssub.add_parser("knuth", help="Knuth orbit of a presemifield")
    k.add_argument("--pqf", default="-")
    k.add_argument("--out-dir", default=None)
    k.set_defaults(cmd="spread_knuth")

    s = ssub.add_parser("bent", help="bivariate bent function on a spread")
    s.add_argument("--pqf", default="-", help="table file, or - for stdin")
    s.add_argument("--g", required=True,
                   help="square-star | sqrt | sqrt-diag | table:FILE")
    s.add_argument("--mu", type=plain_int, default=0)
    s.add_argument("--out-dir", default=None)
    s.set_defaults(cmd="spread_bent")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if any("\0" in v for v in vars(args).values() if isinstance(v, str)):
            raise DomainError("an argument holds a NUL, which no path may hold")
        code = globals()[f"cmd_{args.cmd}"](args)
    except (DomainError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    print(f"wall_time_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
