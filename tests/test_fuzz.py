"""Input loaders either return or raise ValueError, whatever they are fed.

`cli.main` maps ValueError to exit 2; any other exception would be an
internal error (exit 3).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ovalbent import boolfn, geometry, gf, spread

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
