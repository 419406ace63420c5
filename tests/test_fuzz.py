"""Input loaders either return or raise ValueError, whatever they are fed,
and `cli.main` keeps its exit-code contract on mixed valid and invalid
commands.

`cli.main` maps ValueError to exit 2; any other exception would be an
internal error (exit 3).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ovalbent import boolfn, cli, geometry, gf, niho, spread

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20)

small_ints = st.integers(-3, 80)
int_lists = st.lists(small_ints | json_values, max_size=10)

# near-valid documents reach the checks after the shape checks
documents = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["oval", "line_oval"]) | json_values,
    "m": st.integers(1, 10) | json_values,
    "points": int_lists | json_values,
    "infinite": int_lists | json_values,
    "nucleus": small_ints | json_values,
    "lines": st.lists(st.lists(small_ints, max_size=3) | json_values,
                      max_size=10) | json_values,
})

texts = st.text() | documents.map(json.dumps) | json_values.map(json.dumps)


def _returns_or_value_error(load, text):
    try:
        load(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(texts)
def test_oval_loaders(text):
    _returns_or_value_error(geometry.oval_from_json, text)
    _returns_or_value_error(
        lambda t: geometry.line_oval_from_json(t, gf.field_make(3)), text)


headers = st.integers(-3, 12).map(lambda k: f"k={k}") | st.text(max_size=8)
payloads = st.binary(max_size=70).map(bytes.hex) | st.text(max_size=10)


@settings(max_examples=300, deadline=None)
@given(headers, payloads, st.text(max_size=4))
def test_truth_table_loader(header, payload, tail):
    _returns_or_value_error(boolfn.loads_truth_table,
                            f"{header}\n{payload}\n{tail}")


cells = st.integers(-3, 9) | st.integers() | st.text(max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 9).map(lambda q: f"q={q}") | st.text(max_size=6),
       st.sampled_from(["shape=flat", "shape=pair"]) | st.text(max_size=8),
       st.lists(st.lists(cells, max_size=5), max_size=5))
def test_pqf_loader(size, shape, rows):
    text = "\n".join([f"{size} {shape}"] + [" ".join(map(str, r)) for r in rows])
    _returns_or_value_error(spread.loads_pqf, text)


# ---------------------------------------------------------------------------
# cli.main on mixed valid and invalid commands
# ---------------------------------------------------------------------------

# an argv entry is a string, ("file", text) for a file holding text,
# ("table:", ("file", text)) for that file's path behind "table:", or
# ("dir",) for a fresh output directory; all live in a per-example temp dir
def _file(texts):
    return texts.map(lambda text: ("file", text))


# True about one time in four; the simplest draw is False
rarely = st.sampled_from((False, False, False, True))


def _mostly(valid, invalid):
    """valid about three times in four, else invalid."""
    return rarely.flatmap(lambda bad: invalid if bad else valid)


ms = st.sampled_from(range(-1, 12))
carrier_names = ("field:1", "field:2", "field:3", "field:4", "kantor:1:::",
                 "luneburg:3")
junk = _mostly(st.just([]), st.lists(
    st.sampled_from(["--m", "--g", "--mu", "--pqf", "--kind", "-x"])
    | st.text(max_size=5), min_size=1, max_size=3))
spec_docs = st.fixed_dictionaries({}, optional={
    "family": st.sampled_from(niho.FAMILIES) | json_values,
    "m": ms | json_values,
    "a_index": st.integers(-2, 300) | json_values,
    "alpha2_index": st.integers(-2, 300) | json_values,
    "r": st.integers(-1, 12) | json_values,
}).map(json.dumps)


@st.composite
def oval_documents(draw):
    """(m, text): an oval or line-oval document made from some of the
    nonzero points of a catalog hyperoval, or the text of a loader fuzz."""
    if draw(rarely):
        return draw(ms), draw(texts)
    m = draw(st.sampled_from(range(2, 6)))
    p = gf.field_make(m)
    name = draw(st.sampled_from(["conic_like_S", "fisher_schmidt"]))
    oval = geometry.catalog_oval(name, p)
    pts = sorted(oval.points - {0})
    pts = pts[:draw(st.integers(0, len(pts)))] if draw(rarely) else pts
    if draw(st.booleans()):
        return m, geometry.line_oval_to_json(geometry.dual_points_to_lines(pts, p), p)
    return m, geometry.oval_to_json(geometry.Oval(frozenset(pts), frozenset()), p)


truth_tables = st.builds(lambda h, p: f"{h}\n{p}\n", headers, payloads)
pqf_texts = st.builds(
    lambda size, rows: "\n".join([size] + [" ".join(map(str, r)) for r in rows]),
    st.integers(-1, 4).map(lambda d: f"q={1 << max(d, 0)} shape=flat")
    | st.text(max_size=6),
    st.lists(st.lists(st.integers(-1, 16), max_size=5), max_size=5)) \
    | st.sampled_from([spread.dumps_pqf(spread.field_pqf(2)),
                       spread.dumps_pqf(spread.kantor_chain(3, [], [], []))])


@st.composite
def spec_flags(draw):
    if draw(rarely):
        return ["--spec-json", draw(_file(spec_docs))]
    argv = ["--family", draw(_mostly(st.sampled_from(niho.FAMILIES),
                                     st.text(max_size=4))),
            "--m", str(draw(ms))]
    for flag, values in (("--a-index", st.integers(-2, 1 << 19)),
                         ("--alpha2-index", st.integers(-2, 300)),
                         ("--r", st.integers(-1, 12))):
        if draw(rarely):
            argv += [flag, str(draw(values))]
    return argv


@st.composite
def commands(draw):
    """(argv, expect): expect is the exit code of inputs the library states
    valid (0) or a usage error (2), else None."""
    kind = draw(st.sampled_from(["niho", "dual", "ea", "verify", "convert",
                                 "build", "validate", "transpose", "knuth",
                                 "bent"]))
    expect = None
    if kind == "niho":
        argv = ["niho", *draw(spec_flags())]
        if draw(st.booleans()):
            argv += ["--out-dir", ("dir",)]
    elif kind == "dual":
        routes = st.sampled_from(["walsh", "product", "budaghyan", "chi-swap"])
        argv = ["dual", *draw(spec_flags()),
                "--method", draw(_mostly(routes, st.text(max_size=4)))]
        if draw(st.booleans()):
            argv += ["--cross-check", draw(routes)]
    elif kind == "ea":
        argv = ["ea", *(["--table", draw(_file(truth_tables))] if draw(st.booleans())
                        else draw(spec_flags()))]
    elif kind == "verify":
        # the catalog scan is O(q^3) Python work: seconds from m = 8 on
        if draw(st.booleans()):
            argv = ["oval", "verify", "--m", str(draw(st.sampled_from(range(-1, 7)))),
                    "--catalog", draw(st.sampled_from(geometry.CATALOG_NAMES))]
        else:
            m, text = draw(oval_documents())
            argv = ["oval", "verify", "--m", str(draw(_mostly(st.just(m), ms))),
                    "--json", ("file", text)]
    elif kind == "convert":
        m, text = draw(oval_documents())
        flag = draw(st.sampled_from(["--points-json", "--lines-json"]))
        argv = ["oval", "convert", "--m", str(draw(_mostly(st.just(m), ms))),
                flag, ("file", text)]
    elif kind == "build":
        # carrier tables are 4^m entries: seconds per build from m = 10 on
        build_kind = draw(st.sampled_from(["field", "kantor", "luneburg", "table"]))
        m = draw(st.sampled_from(range(-1, 10)))
        omit = draw(rarely)         # --m, or --table with --kind table
        argv = ["spread", "build", "--kind", build_kind]
        if not omit:
            argv += (["--table", draw(_file(pqf_texts))] if build_kind == "table"
                     else ["--m", str(m)])
        csv = st.lists(st.integers(-1, 4), max_size=2).map(
            lambda v: ",".join(map(str, v)))
        chain = build_kind == "kantor" and draw(st.booleans())
        if chain:
            argv += ["--chain", draw(csv), "--lambdas", draw(csv), "--zetas", draw(csv)]
        expect = 0 if (build_kind in ("field", "kantor") and m >= 1
                       and not omit and not chain) else None
        # a flag its kind does not read is a usage error
        unread = {"kantor": ["--table"],
                  "table": ["--m", "--chain", "--lambdas", "--zetas"]}
        if draw(rarely):
            flag = draw(st.sampled_from(unread.get(
                build_kind, ["--chain", "--lambdas", "--zetas", "--table"])))
            argv += [flag, draw(_file(pqf_texts)) if flag == "--table"
                     else str(m) if flag == "--m" else draw(csv)]
            expect = 2
    else:
        pqf = draw(_mostly(st.sampled_from(carrier_names), _file(pqf_texts)))
        argv = ["spread", kind, "--pqf", pqf]
        if kind == "bent":
            g = draw(_mostly(st.sampled_from(["sqrt", "sqrt-diag", "square-star"]),
                             _file(st.text(max_size=10)).map(lambda f: ("table:", f))
                             | st.text(max_size=4)))
            mu = draw(st.integers(-2, 70))
            argv += ["--g", g, "--mu", str(mu)]
            # mu != 0 adds mu * z to G, which may break bentness
            if (pqf in carrier_names and mu == 0
                    and (g in ("sqrt", "sqrt-diag")
                         or (g == "square-star" and pqf.startswith("field")))):
                expect = 0
    extra = draw(junk)
    return argv + extra, None if extra else expect


def _materialize(argv, tmp):
    out = []
    for i, a in enumerate(argv):
        prefix = ""
        if isinstance(a, tuple) and a[0] == "table:":
            prefix, a = a
        if isinstance(a, tuple) and a[0] == "file":
            path = Path(tmp) / f"in{i}"
            path.write_text(a[1])
            a = str(path)
        elif isinstance(a, tuple):
            a = str(Path(tmp) / f"out{i}")
        out.append(prefix + a)
    return out


def _has_false(report):
    if report is False:
        return True
    if isinstance(report, dict):
        return any(_has_false(v) for v in report.values())
    if isinstance(report, list):
        return any(_has_false(v) for v in report)
    return False


def _first_json(text):
    return json.JSONDecoder().raw_decode(text.lstrip())[0]


@settings(max_examples=150, deadline=None)
@given(commands())
@example((["spread", "bent", "--pqf", "field:1", "--g", "sqrt", "--mu", "0"], 0))
@example((["spread", "bent", "--pqf", "field:1", "--g", "square-star", "--mu", "0"],
          0))
@example((["spread", "build", "--kind", "kantor", "--m", "1"], 0))
@example((["spread", "build", "--kind", "kantor", "--m", "1", "--table",
           ("file", "")], 2))
@example((["spread", "build", "--kind", "table", "--table", ("file", ""),
           "--m", "3"], 2))
@example((["spread", "build", "--kind", "kantor", "--m", "3",
           "--chain", "0", "--lambdas", "", "--zetas", ""], None))
@example((["spread", "bent", "--pqf", "field:2", "--g",
           ("table:", ("file", "0 1 2 99999999999999999999\n"))], None))
@example((["spread", "bent", "--pqf", "field:2", "--g",
           ("table:", ("file", "0 +1 3 2\n"))], 2))
@example((["spread", "build", "--kind", "luneburg"], None))
@example((["spread", "build", "--kind", "field"], None))
@example((["oval", "convert", "--m", "3", "--points-json",
           ("file", json.dumps({"kind": "oval", "m": 3, "points": [1, 2, 3],
                                "infinite": [], "nucleus": None}))], None))
@example((["niho", "--spec-json",
           ("file", json.dumps({"family": "quadratic", "m": 4, "a_index": True}))],
          None))
@example((["niho", "--family", "quadratic", "--m", "3", "--alpha2-index", "5"],
          None))
@example((["niho", "--family", "quadratic", "--m", "+3"], 2))
@example((["spread", "validate", "--pqf", "field:\u0663"], 2))
@example((["spread", "build", "--kind", "kantor", "--m", "5", "--chain", "1",
           "--lambdas", "1", "--zetas", "1_1"], 2))
@example((["spread", "bent", "--pqf", "field:3", "--g", "sqrt", "--mu", " 1"], 2))
def test_cli_exit_contract(command):
    """Exit 0, 1 or 2 only; exit 1 only with a false verdict in the report;
    inputs the library states valid exit 0, and a `spread build` flag its
    kind does not read exits 2; a report's Niho spec names only
    the fields its family reads; a conversion that exits 0 put out a whole
    (line) oval of q+1 or q+2 members."""
    argv, expect = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = _materialize(argv, tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as e:          # argparse rejects its input this way
            code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue()[-400:])
    if expect is not None:
        assert code == expect, (argv, out.getvalue()[-400:], err.getvalue()[-400:])
    if code == 2:
        return
    # reports go to stdout, or to stderr when stdout carries a document
    stream = err if err.getvalue().lstrip().startswith("{") else out
    report = _first_json(stream.getvalue())
    if code == 1:
        assert _has_false(report), (argv, report)
    if argv[0] in ("niho", "dual"):
        spec = report["spec"]
        assert "alpha2_index" not in spec \
            or spec["family"] in ("binomial_3", "binomial_1_6"), argv
        assert "r" not in spec or spec["family"] == "leander_r", argv
    if argv[:2] == ["oval", "convert"] and code == 0:
        doc = _first_json(out.getvalue())
        q = 1 << int(argv[3])
        members = (len(doc["lines"]) if "lines" in doc
                   else len(doc["points"]) + len(doc["infinite"]))
        assert members in (q + 1, q + 2), argv
