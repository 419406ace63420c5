"""Command-line front end.

Subcommands: niho, oval, dual, ea, spread (build/validate/transpose/
knuth/bent).  Reports are JSON with sorted keys on stdout, so output
bytes are deterministic for fixed inputs; timing goes to stderr.

Exit codes: 0 all verdicts pass, 1 a verification failed (the report
carries a witness), 2 usage or input errors (m outside 2..9 included,
and carriers of GF(2) dimension above 12), 3 an internal error
(traceback on stderr).
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


class InputError(Exception):
    """Bad input or parameters (exit code 2)."""


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


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, (tuple, list)):
        return [_witness_json(v) for v in w]
    if isinstance(w, (np.integer, int)):
        return int(w)
    return str(w)


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
    spec.resolve(params)
    g = niho.g_of_spec(spec, params)

    f = niho.bent_from_g(g, params)
    bent = boolfn.is_bent(f)
    verdicts = {"bent": bent}
    counts: dict = {}
    witnesses: dict = {}
    artifacts: dict = {}

    if bent:
        oval = niho.line_oval_from_g(g, params)
        verdicts["line_oval"] = True
        counts["e_size"] = oval.e_size()
        dw = niho.dual_walsh(f, params)
        dp = niho.dual_product_formula(oval, params)
        verdicts["dual_walsh_eq_product"] = dw == dp
        if spec.family == "leander_r" and spec.r is not None and spec.r % 2 == 0:
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
    else:
        ok, witness, cnts = geometry.verify_line_oval(
            niho.lines_of_g(g, params), params)
        verdicts["line_oval"] = ok
        if witness is not None:
            witnesses["line_oval_point"] = int(witness)
            counts["witness_cover"] = int(cnts[witness])

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
                raise InputError("field size mismatch between --m and the file")
        else:
            raise InputError("verify needs --catalog or --json")
        ok, witness = geometry.verify_oval(oval.points, params, oval.infinite)
        report = {"command": "oval verify", "field": _field_info(params),
                  "source": args.catalog or args.json,
                  "counts": {"points": len(oval.points),
                             "infinite": len(oval.infinite)},
                  "verdicts": {"no_three_collinear": ok},
                  "witnesses": {"collinear_triple": _witness_json(witness)}}
        _emit(report)
        return 0 if ok else 1

    # convert (the point/line duality)
    if args.points_json:
        m, oval = geometry.oval_from_json(Path(args.points_json).read_text())
        if m != args.m:
            raise InputError("conversion needs points over the same field")
        # a point at infinity with circle index j is the dual of L(S[j], 0)
        lines = geometry.dual_points_to_lines(sorted(oval.points), params) + [
            geometry.AffineLineK(int(params.S[j]), 0) for j in sorted(oval.infinite)]
        ok, witness = geometry.verify_no_three_concurrent(lines, params)
        print(geometry.line_oval_to_json(lines, params))
        report = {"command": "oval convert", "direction": "points_to_lines",
                  "verdicts": {"line_oval": ok},
                  "witnesses": {"concurrency": _witness_json(witness)}}
        _emit(report, sys.stderr)
        return 0 if ok else 1
    if args.lines_json:
        lines = geometry.line_oval_from_json(Path(args.lines_json).read_text(),
                                             params)
        oval = geometry.dual_lines_to_oval(lines, params)
        ok, witness = geometry.verify_oval(oval.points, params, oval.infinite)
        print(geometry.oval_to_json(oval, params))
        report = {"command": "oval convert", "direction": "lines_to_points",
                  "verdicts": {"oval": ok},
                  "witnesses": {"collinear_triple": _witness_json(witness)}}
        _emit(report, sys.stderr)
        return 0 if ok else 1
    raise InputError("convert needs --points-json or --lines-json")


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def cmd_dual(args) -> int:
    spec = _spec_from_args(args)
    params = field_make(spec.m)
    g = niho.g_of_spec(spec, params)
    spectrum = boolfn.walsh_transform(niho.bent_from_g(g, params))
    if not spectrum.is_bent():
        raise InputError("the requested spec is not bent; no dual exists")
    # one line oval for the routes that read it
    oval = (niho.line_oval_from_g(g, params)
            if {"product", "chi-swap"} & {args.method, args.cross_check} else None)

    def dual_by(method: str) -> boolfn.BooleanFunction:
        if method == "walsh":
            return spectrum.dual(params.tr_mask_table())
        if method == "product":
            return niho.dual_product_formula(oval, params)
        if method == "budaghyan":
            return niho.dual_budaghyan(spec, params)
        if method == "chi-swap":
            return boolfn.BooleanFunction(params.n, 1 ^ oval.e_table)
        raise InputError(f"unknown method {method}")

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
    report = {"command": "dual", "method": args.method,
              "cross_check": args.cross_check,
              "spec": json.loads(spec.to_json()),
              "field": _field_info(params),
              "verdicts": verdicts, "artifacts": artifacts}
    _emit(report)
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

# fields of each `--pqf` kind spec after the kind: m, or m:chain:lambdas:zetas
_KIND_FIELDS = {"field": 1, "luneburg": 1, "kantor": 4}


def _kind_pqf(kind: str, m: int, chain: str = "", lambdas: str = "",
              zetas: str = "") -> spread.Prequasifield:
    """The prequasifield of a construction kind (a key of `_KIND_FIELDS`);
    chain, lambdas and zetas are comma lists, read by kantor only."""
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
        return spread.loads_pqf(sys.stdin.read())
    if ":" in path and not Path(path).exists():
        kind, *fields = path.split(":")
        if kind not in _KIND_FIELDS:
            raise InputError(f"unknown prequasifield kind {kind!r}")
        if len(fields) != _KIND_FIELDS[kind]:
            raise InputError(f"a {kind} kind spec has {_KIND_FIELDS[kind]} "
                             f"field(s) after the kind, got {len(fields)}")
        return _kind_pqf(kind, int(fields[0]), *fields[1:])
    return spread.load_pqf(path)


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")] if text else []


def _build_pqf(args) -> spread.Prequasifield:
    if args.kind == "table":
        if not args.table:
            raise InputError("--kind table needs --table FILE")
        return _read_pqf(args.table)
    if args.m is None:
        raise InputError(f"--kind {args.kind} needs --m")
    return _kind_pqf(args.kind, args.m, args.chain, args.lambdas, args.zetas)


def cmd_spread_build(args) -> int:
    Q = _build_pqf(args)
    rep = spread.validate_prequasifield(Q).as_dict()
    report = {"command": "spread build", "kind": args.kind, "m": Q.m,
              "shape": Q.shape, "size": Q.size, "validation": rep}
    text = spread.dumps_pqf(Q)
    if args.out:
        Path(args.out).write_text(text)
        report["artifacts"] = {"table": args.out}
        _emit(report)
    else:
        sys.stdout.write(text)
        _emit(report, sys.stderr)
    return 0 if rep["axioms_ok"] else 1


def cmd_spread_validate(args) -> int:
    Q = _read_pqf(args.pqf)
    rep = spread.validate_prequasifield(Q).as_dict()
    ok, wit = spread.verify_spread(Q)
    report = {"command": "spread validate", "m": Q.m, "shape": Q.shape,
              "validation": rep,
              "spread_partition_ok": ok,
              "spread_witness": _witness_json(wit)}
    _emit(report)
    return 0 if rep["axioms_ok"] and ok else 1


def _valid_pqf(path: str) -> spread.Prequasifield:
    """The prequasifield at `path`; bad input when its axioms fail, since
    the commands that take it are defined only for prequasifields."""
    Q = _read_pqf(path)
    rep = spread.validate_prequasifield(Q)
    if not rep.axioms_ok:
        raise InputError(f"prequasifield axioms fail: {rep.failures}")
    return Q


def cmd_spread_transpose(args) -> int:
    Q = _valid_pqf(args.pqf)
    Qt = Q.transposed()        # kept by the validation's symplecticity check
    report = {"command": "spread transpose", "m": Q.m, "shape": Q.shape,
              "involution_ok": bool(np.array_equal(
                  spread.transpose_pqf(Qt).table, Q.table)),
              "perpendicular_ok": spread.spreads_perpendicular(Q, Qt),
              "symplectic_fixed_point": bool(np.array_equal(Qt.table, Q.table))}
    text = spread.dumps_pqf(Qt)
    if args.out:
        Path(args.out).write_text(text)
        _emit(report)
    else:
        sys.stdout.write(text)
        _emit(report, sys.stderr)
    return 0 if report["involution_ok"] and report["perpendicular_ok"] else 1


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
    return 0 if len(items) <= 6 else 1


def _g_table_from_flag(flag: str, Q: spread.Prequasifield) -> np.ndarray:
    if flag == "square-star":
        return spreadbent.g_square_star(Q)
    if flag in ("sqrt", "sqrt-diag"):
        return spread.sqrt_diag_g_table(Q)
    if flag.startswith("table:"):
        path = flag[len("table:"):]
        vals = [int(v) for v in Path(path).read_text().split()]
        if len(vals) != Q.size:
            raise InputError("G table must list one value per carrier element")
        # checked as Python ints, before any value can overflow or wrap
        if not all(0 <= v < Q.size for v in vals):
            raise InputError(f"G values must be carrier elements in [0, {Q.size})")
        return np.array(vals, dtype=np.int32)
    raise InputError(f"unknown --g flag {flag!r}")


def cmd_spread_bent(args) -> int:
    Q = _valid_pqf(args.pqf)
    G = _g_table_from_flag(args.g, Q)
    spec = spreadbent.SpreadBentSpec(Q, G, args.mu)
    # the verdicts are read on the mu-normalized form
    analysis, f, dual = spreadbent.analyze(spec)
    analysis["criterion_witness"] = _witness_json(analysis["criterion_witness"])
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
    p.add_argument("--m", type=int)
    p.add_argument("--a-index", type=int, default=None)
    p.add_argument("--alpha2-index", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--spec-json", default=None,
                   help="JSON file {family, m, a_index?, r?} instead of flags")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand stores its
    name in `cmd`; `main` looks up `cmd_<name>` at call time."""
    ap = argparse.ArgumentParser(
        prog="ovalbent",
        description="bent functions linear on spreads, their duals, and the "
                    "associated ovals and line ovals")
    ap.add_argument("--seed", type=int, default=0,
                    help="has no effect (every check is exhaustive); kept "
                         "so that existing scripts keep working")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("niho", help="build and verify a Niho bent function")
    _add_spec_flags(p)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(cmd="niho")

    p = sub.add_parser("oval", help="verify or convert ovals and line ovals")
    p.add_argument("action", choices=["verify", "convert"])
    p.add_argument("--m", type=int, required=True)
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
    b.add_argument("--kind", required=True,
                   choices=["field", "kantor", "luneburg", "table"])
    b.add_argument("--m", type=int)
    b.add_argument("--chain", default="", help="comma list of subfield degrees")
    b.add_argument("--lambdas", default="", help="comma list of F-indices")
    b.add_argument("--zetas", default="", help="comma list of F-indices")
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
    s.add_argument("--mu", type=int, default=0)
    s.add_argument("--out-dir", default=None)
    s.set_defaults(cmd="spread_bent")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = globals()[f"cmd_{args.cmd}"](args)
    except (InputError, OSError, ValueError) as e:
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
