import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpxlab.core import (
    SdpaParseError,
    SdpInstance,
    SdpxlabError,
    SparseSymMatrix,
    UnsupportedFormatError,
)
from sdpxlab.relaxations import er_graph, lmi_sdp, maxcut_sdp
from sdpxlab.sdpa import read_sdpa, write_sdpa

from test_verify import prop32

HAND_FIXTURE = """\
* tiny hand-written fixture
1
1
2
1.0
0 1 1 1 1.0
1 1 1 1 1.0
"""


def test_hand_fixture_parses_with_sign_flip():
    inst = read_sdpa(HAND_FIXTURE)
    assert inst.n == 2 and inst.m == 1
    np.testing.assert_array_equal(inst.C, np.diag([-1.0, 0.0]))
    np.testing.assert_array_equal(inst.A[0].to_dense(), np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(inst.b, [1.0])


def test_round_trip_prop32():
    inst = prop32()
    again = read_sdpa(write_sdpa(inst))
    assert inst.n == again.n and inst.m == again.m
    np.testing.assert_array_equal(inst.C, again.C)
    for a, b in zip(inst.A, again.A):
        assert a == b
    np.testing.assert_array_equal(inst.b, again.b)


def test_round_trip_is_bit_exact_on_generated_instances():
    for seed in range(6):
        inst = maxcut_sdp(er_graph(6, 0.5, seed))
        again = read_sdpa(write_sdpa(inst))
        np.testing.assert_array_equal(inst.C, again.C)
        assert all(a == b for a, b in zip(inst.A, again.A))
        np.testing.assert_array_equal(inst.b, again.b)
    inst = lmi_sdp(3, 4, seed=1)
    again = read_sdpa(write_sdpa(inst))
    np.testing.assert_array_equal(inst.C, again.C)
    assert all(a == b for a, b in zip(inst.A, again.A))
    np.testing.assert_array_equal(inst.b, again.b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7))
def test_round_trip_random_values(seed, n):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, n)) * rng.choice([1e-6, 1.0, 1e6])
    A = []
    for _ in range(3):
        coords = [(i, j, rng.standard_normal())
                  for i in range(n) for j in range(i, n) if rng.random() < 0.4]
        A.append(SparseSymMatrix.from_coords(n, coords or [(0, 0, 1.0)]))
    inst = SdpInstance(n=n, C=(C + C.T) / 2, A=tuple(A), b=rng.standard_normal(3))
    again = read_sdpa(write_sdpa(inst))
    np.testing.assert_array_equal(inst.C, again.C)
    assert all(a == b for a, b in zip(inst.A, again.A))
    np.testing.assert_array_equal(inst.b, again.b)


@pytest.mark.parametrize("C", [np.diag([1.0, 0.0]), np.zeros((2, 2))])
def test_round_trip_without_constraints(C):
    # m = 0 writes an empty rhs line, which the reader drops as blank
    inst = SdpInstance(n=2, C=C, A=(), b=[])
    again = read_sdpa(write_sdpa(inst))
    assert (again.n, again.m) == (2, 0)
    np.testing.assert_array_equal(again.C, C)


def test_rhs_line_without_constraints_is_optional():
    inst = SdpInstance(n=2, C=np.diag([1.0, 0.0]), A=(), b=[])
    assert read_sdpa("0\n1\n2\n{}\n0 1 1 1 -1.0\n") == inst
    assert read_sdpa("0\n1\n2\n0 1 1 1 -1.0\n") == inst
    with pytest.raises(SdpaParseError) as err:
        read_sdpa("0\n1\n2\n1.0\n")  # an rhs value with no constraint
    assert err.value.line_no == 4
    with pytest.raises(SdpaParseError, match="truncated header"):
        read_sdpa("1\n1\n2\n")


def test_multiblock_flattens_to_block_diagonal():
    text = "\n".join([
        "1", "2", "2 1", "3.5",
        "0 1 1 2 1.0",
        "0 2 1 1 2.0",
        "1 1 1 1 1.0",
        "1 2 1 1 -1.0",
    ]) + "\n"
    inst = read_sdpa(text)
    assert inst.n == 3
    expect_C = np.zeros((3, 3))
    expect_C[0, 1] = expect_C[1, 0] = -1.0
    expect_C[2, 2] = -2.0
    np.testing.assert_array_equal(inst.C, expect_C)
    np.testing.assert_array_equal(inst.A[0].to_dense(),
                                  np.diag([1.0, 0.0, -1.0]))


def test_parse_errors_carry_line_numbers():
    bad = HAND_FIXTURE.replace("1 1 1 1 1.0", "1 1 1 oops 1.0")
    with pytest.raises(SdpaParseError) as err:
        read_sdpa(bad)
    assert err.value.line_no == 7
    with pytest.raises(SdpaParseError):
        read_sdpa("2\n1\n2\n1.0\n")  # rhs count mismatch


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_values_rejected_with_line_number(tok):
    with pytest.raises(SdpaParseError) as err:
        read_sdpa(HAND_FIXTURE.replace("1 1 1 1 1.0", f"1 1 1 1 {tok}"))
    assert err.value.line_no == 7
    with pytest.raises(SdpaParseError) as err:
        read_sdpa(HAND_FIXTURE.replace("2\n1.0\n", f"2\n{tok}\n"))
    assert err.value.line_no == 5


@pytest.mark.parametrize("text,line_no", [
    ("{}\n1\n2\n1.0\n", 1),
    ("1\n()\n2\n1.0\n", 2),
    ("1\n1\n,;\n1.0\n", 3),
])
def test_header_of_only_separators_is_parse_error(text, line_no):
    with pytest.raises(SdpaParseError) as err:
        read_sdpa(text)
    assert err.value.line_no == line_no


# a valid two-block file whose header and entry lines the strategy mutates
_VALID_LINES = ["2", "2", "{2, 1}", "(3.5, -1)", "0 1 1 2 1.0", "0 2 1 1 2.0",
                "1 1 1 1 1.0", "1 2 1 1 -1.0", "2 1 2 2 0.5"]
_TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "1.5", "-0.25", "nan", "1e999",
                           "x", "{", "}", "(", ")", ",", ";", "*", '"', ""])


@st.composite
def _mutated_sdpa(draw):
    lines = list(_VALID_LINES)
    for _ in range(draw(st.integers(1, 4))):
        # half the edits land in the four header lines
        idx = draw(st.one_of(st.integers(0, 3), st.integers(0, len(lines))))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        new = " ".join(draw(st.lists(_TOKENS, max_size=6)))
        if edit == "insert":
            lines.insert(idx, new)
        elif idx < len(lines):
            lines[idx:idx + 1] = [new] if edit == "replace" else []
    return "\n".join(lines) + "\n"


def _read_quietly(text):
    # a constraint with no nonzero entry warns; that is not under test here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return read_sdpa(text)


@settings(max_examples=300, deadline=None)
@given(_mutated_sdpa())
def test_any_text_parses_and_round_trips_or_raises_typed_error(text):
    try:
        inst = _read_quietly(text)
    except SdpxlabError:
        return
    again = _read_quietly(write_sdpa(inst))
    assert inst.C.tobytes() == again.C.tobytes()
    assert inst.b.tobytes() == again.b.tobytes()
    assert inst.A == again.A


def test_negative_block_rejected():
    with pytest.raises(UnsupportedFormatError):
        read_sdpa("1\n1\n-3\n1.0\n")


def test_empty_constraint_section_warns():
    text = "1\n1\n2\n1.0\n0 1 1 1 1.0\n"
    with pytest.warns(UserWarning, match="linearly dependent"):
        read_sdpa(text)


def test_comments_ignored_anywhere():
    text = '* leading comment\n"another\n' + write_sdpa(prop32())
    inst = read_sdpa(text)
    assert inst == prop32()
