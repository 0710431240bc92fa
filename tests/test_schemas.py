import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionkit.schemas import SchemaError, _parse_entries, parse_any, parse_matrix

# what json.loads can hand parse_matrix as one entry
NUMBERS = st.one_of(
    st.integers(-2**70, 2**70),
    st.integers(-2**63, 2**63 - 1),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e-308, 5e-324, 2.0**53 + 1, 0.1]),
)
ENTRIES = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, min_size=2, max_size=2),
    st.booleans(),
    st.lists(NUMBERS, min_size=0, max_size=3),
    st.text(max_size=3),
    st.none(),
)


@st.composite
def nested_lists(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["numbers", "pairs", "mixed", "ragged"]))
    entry = {"numbers": NUMBERS, "pairs": st.lists(NUMBERS, min_size=2, max_size=2),
             "mixed": ENTRIES, "ragged": ENTRIES}[kind]
    width = (lambda: draw(st.integers(0, 4))) if kind == "ragged" else (lambda: cols)
    return [[draw(entry) for _ in range(width())] for _ in range(rows)]


def _outcome(fn, v):
    try:
        m = fn(v, "m")
    except (SchemaError, OverflowError) as e:
        return type(e).__name__, str(e)
    return m.shape, m.dtype, m.tobytes()


@settings(max_examples=400, deadline=None)
@given(nested_lists())
def test_numpy_path_is_bit_equal_to_the_entry_path(v):
    # round-trip through JSON so that the input is what a document decodes to
    v = json.loads(json.dumps(v))
    assert _outcome(parse_matrix, v) == _outcome(_parse_entries, v)


def test_numpy_path_keeps_signed_zeros_and_big_ints():
    m = parse_matrix([[[-0.0, -0.0], -0.0, 2**62 + 1]], "m")
    assert m.tobytes() == np.array([complex(-0.0, -0.0), complex(-0.0),
                                    complex(2**62 + 1)]).reshape(1, 3).tobytes()


def _rep(m):
    return {"kind": "representation", "rank": 1, "generators": {"t": m}}


MALFORMED = "representation document malformed: generator t: "
PAIR = "expected a number or [re, im] pair, got "
# messages as the entry-by-entry parser gave them before the numpy path
TABLE = [
    (_rep("1.0"), MALFORMED + "expected a nested array"),
    (_rep([]), MALFORMED + "expected a nested array"),
    (_rep([1.0]), MALFORMED + "expected a nested array"),
    (_rep([["1.0"]]), MALFORMED + PAIR + "'1.0'"),
    (_rep([[None]]), MALFORMED + PAIR + "None"),
    (_rep([[[1.0]]]), MALFORMED + PAIR + "[1.0]"),
    (_rep([[[1.0, 2.0, 3.0]]]), MALFORMED + PAIR + "[1.0, 2.0, 3.0]"),
    (_rep([[[1.0, "2"]]]), MALFORMED + PAIR + "[1.0, '2']"),
    (_rep([[1.0], [2.0, 3.0]]), MALFORMED + "ragged matrix"),
    (_rep([[1.0, [2.0, 3.0]], [4.0]]), MALFORMED + "ragged matrix"),
    (_rep([[{"re": 1}]]), MALFORMED + PAIR + "{'re': 1}"),
    (_rep([[[[1.0, 0.0]]]]), MALFORMED + PAIR + "[[1.0, 0.0]]"),
    (_rep([[1.0, 2.0]]), "representation document malformed: expected 1 columns, got 2"),
    (_rep([[0.0]]),
     "representation document malformed: generator 't' maps to a singular matrix"),
    ({"kind": "chirality", "dims": [1, 1], "differentials": [[["x"]]],
      "gamma": [[[1.0]], [[1.0]]]},
     "chirality document malformed: differential 0: " + PAIR + "'x'"),
    ({"kind": "chirality", "dims": [1, 1], "differentials": [[[1.0]]],
      "gamma": [[[1.0]], [[1.0, 2.0]]]},
     "chirality document malformed: expected 1 columns, got 2"),
    ({"kind": "curve", "rank": 1, "generators": {"t": [[[1.0]], [[False, "a"]]]}},
     "curve document malformed: curve t[1]: " + PAIR + "'a'"),
]


@pytest.mark.parametrize("doc,message", TABLE)
def test_malformed_documents_keep_their_messages(doc, message):
    with pytest.raises(SchemaError) as e:
        parse_any(doc)
    assert str(e.value) == message


def test_bool_matrix_still_parses():
    rep = parse_any(_rep([[True]]))
    assert rep.matrices["t"].tobytes() == np.array([[1 + 0j]]).tobytes()
