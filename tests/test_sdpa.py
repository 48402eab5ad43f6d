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
from sdpxlab.relaxations import (
    er_graph,
    lmi_sdp,
    maxclique_sdp,
    maxcut_sdp,
    mis_sdp,
    vertexcover_sdp,
)
from sdpxlab.sdpa import read_sdpa, write_sdpa

from oracles import reference_read_sdpa, reference_write_sdpa
from test_core import operator_instances
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


def _mutate(draw, lines, edits):
    lines = list(lines)
    for _ in range(draw(edits)):
        # half the edits land in the four header lines
        idx = draw(st.one_of(st.integers(0, 3), st.integers(0, len(lines))))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        new = " ".join(draw(st.lists(_TOKENS, max_size=6)))
        if edit == "insert":
            lines.insert(idx, new)
        elif idx < len(lines):
            lines[idx:idx + 1] = [new] if edit == "replace" else []
    return "\n".join(lines) + "\n"


@st.composite
def _mutated_sdpa(draw):
    return _mutate(draw, _VALID_LINES, st.integers(1, 4))


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


HUGE_BLOCKS = ["1\n1\n99999999999999999999\n1.0\n1 1 1 1 1.0\n",
               "1\n1\n3000000000\n1.0\n1 1 1 1 1.0\n",
               "1\n2\n9223372036854775807 9223372036854775807\n1.0\n1 1 1 1 1.0\n"]


@pytest.mark.parametrize("text", HUGE_BLOCKS)
def test_block_sizes_too_large_to_allocate_are_a_parse_error(text):
    with pytest.raises(SdpaParseError, match="too large") as err:
        read_sdpa(text)
    assert err.value.line_no == 3


def test_negative_block_rejected():
    with pytest.raises(UnsupportedFormatError):
        read_sdpa("1\n1\n-3\n1.0\n")


def test_empty_constraint_section_warns():
    text = "1\n1\n2\n1.0\n0 1 1 1 1.0\n"
    with pytest.warns(UserWarning, match="linearly dependent") as caught:
        read_sdpa(text)
    assert caught[0].filename == __file__


def test_comments_ignored_anywhere():
    text = '* leading comment\n"another\n' + write_sdpa(prop32())
    inst = read_sdpa(text)
    assert inst == prop32()


def _outcome(read, text):
    """What a reader makes of ``text``: the instance's bytes and the
    warnings it gave, or the exception's type, line number and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = read(text)
        except Exception as err:  # any type: the two readers must raise the same one
            return type(err), getattr(err, "line_no", None), str(err)
    return (inst.n, inst.C.tobytes(), inst.b.tobytes(),
            [(a.n, a.rows.tobytes(), a.cols.tobytes(), a.vals.tobytes()) for a in inst.A],
            [(w.category, str(w.message)) for w in caught])


_GENERATORS = {"clique": maxclique_sdp, "mis": mis_sdp, "vc": vertexcover_sdp}


@st.composite
def _generated_sdpa(draw):
    """A clique, MIS or vertex-cover file, with up to two edited lines."""
    make = _GENERATORS[draw(st.sampled_from(sorted(_GENERATORS)))]
    inst = make(er_graph(draw(st.integers(2, 12)), 0.5, draw(st.integers(0, 50))))
    return _mutate(draw, write_sdpa(inst).splitlines(), st.integers(0, 2))


_VALUES = st.one_of(st.sampled_from(["1", "-1", "0", "-0.0", "1e-13", "-4e-13", "2.5",
                                     "+3", "1_0", "1E2"]),
                    st.floats(-1e6, 1e6).map(repr))
_FAULTS = st.sampled_from(["k", "blk", "i", "j", "token", "value", "repeat", "count"])


@st.composite
def _multiblock_sdpa(draw):
    """A multi-block file with entries in either triangle and values that
    quantize to zero; one line in ten has a fault."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    m = draw(st.integers(0, 4))
    lines = [str(m), str(len(sizes)), "{" + ", ".join(map(str, sizes)) + "}",
             " ".join(draw(st.lists(_VALUES, min_size=m, max_size=m)))]
    used = set()
    for _ in range(draw(st.integers(0, 20))):
        blk = draw(st.integers(1, len(sizes)))
        toks = {"k": draw(st.integers(0, m)), "blk": blk,
                "i": draw(st.integers(1, sizes[blk - 1])),
                "j": draw(st.integers(1, sizes[blk - 1])), "value": draw(_VALUES)}
        fault = draw(st.integers(0, 9)) == 0 and draw(_FAULTS)
        key = (toks["k"], blk, min(toks["i"], toks["j"]), max(toks["i"], toks["j"]))
        if key in used and not fault:
            continue
        used.add(key)
        if fault in ("k", "blk", "i", "j"):
            # at or past an end of the range, or beyond int64
            toks[fault] = draw(st.sampled_from([-1, 0, m + 1, len(sizes) + 1,
                                                sizes[blk - 1] + 1, 2 ** 63]))
        elif fault == "token":
            toks[draw(st.sampled_from(sorted(toks)))] = draw(st.sampled_from(["x", "1.5", "1e999"]))
        elif fault == "value":
            toks["value"] = draw(st.sampled_from(["nan", "-inf", "1e999"]))
        line = " ".join(str(toks[c]) for c in ("k", "blk", "i", "j", "value"))
        if fault == "repeat" and len(lines) > 4:
            k, blk, i, j, v = draw(st.sampled_from(lines[4:])).split()[:5]
            line = " ".join([k, blk, *draw(st.permutations([i, j])), draw(_VALUES)])
        elif fault == "count":
            line = " ".join(line.split()[:draw(st.sampled_from([4, 6]))] + ["1"])
        lines.append(line)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutated_sdpa(), _generated_sdpa(), _multiblock_sdpa()))
def test_reader_matches_reference_reader(text):
    assert _outcome(read_sdpa, text) == _outcome(reference_read_sdpa, text)


_TWO_BLOCKS = ["2", "2", "2 1", "1.0 2.0", "0 1 1 1 1.0", "1 1 1 2 1.0"]


@pytest.mark.parametrize("later,expect", [
    # a duplicate on line 7, then a bad token, which is checked before
    # duplicates within a line, on line 9
    (["1 1 1 2 3.0", "2 1 2 2 1.0", "2 1 x 1 1.0"], "line 7: duplicate entry (1,2) in matrix 1"),
    # a block out of range on line 7, then a line of four tokens on line 8
    (["1 3 1 1 1.0", "2 1 2 2"], "line 7: block index 3 out of range 1..2"),
    # (j,i) after (i,j) repeats the entry of the upper triangle
    (["1 1 2 1 1.0", "2 2 1 1 1.0"], "line 7: duplicate entry (2,1) in matrix 1"),
    # three tokens, then seven: read as two lines of five they would parse
    (["2 1 2", "2 1 2 1 1 1 1"], "line 7: expected 'k blk i j value', got '2 1 2'"),
])
def test_first_bad_line_in_file_order_wins(later, expect):
    text = "\n".join(_TWO_BLOCKS + later) + "\n"
    with pytest.raises(SdpaParseError) as err:
        read_sdpa(text)
    assert (err.value.line_no, str(err.value)) == (7, expect)
    assert _outcome(read_sdpa, text) == _outcome(reference_read_sdpa, text)


@pytest.mark.parametrize("bad", [
    "1 1 1", "1 1 1 1 1.0 1", "x 1 1 1 1.0", "1 x 1 1 1.0", "1 1 1.5 1 1.0", "1 1 1 x 1.0",
    "1 1 1 1 x", "1 1 1 1 nan", "1 1 1 1 -1e999", "3 1 1 1 1.0", "-1 1 1 1 1.0",
    f"{2 ** 63} 1 1 1 1.0", "1 0 1 1 1.0", "1 3 1 1 1.0", "1 1 0 1 1.0", "1 1 3 1 1.0",
    "1 1 1 3 1.0", f"1 1 1 {2 ** 63} 1.0", "1 2 1 2 1.0", "1 2 2 1 1.0", "1 1 2 1 5.0",
])
def test_each_entry_fault_is_reported_on_its_line(bad):
    text = "\n".join(_TWO_BLOCKS + [bad, "2 2 1 1 1.0"]) + "\n"
    with pytest.raises(SdpaParseError) as err:
        read_sdpa(text)
    assert err.value.line_no == 7
    assert _outcome(read_sdpa, text) == _outcome(reference_read_sdpa, text)


def test_writer_matches_reference_writer():
    rng = np.random.default_rng(3)
    C = rng.standard_normal((5, 5))
    C[rng.random((5, 5)) < 0.5] = -0.0
    odd = SdpInstance(n=5, C=C + C.T, b=rng.standard_normal(2) * 1e-7, A=(
        SparseSymMatrix.from_coords(5, [(4, 0, rng.standard_normal()), (2, 2, 1e300)]),
        SparseSymMatrix.from_coords(5, [])))
    for inst in [*operator_instances(), lmi_sdp(4, 3, seed=2), odd]:
        assert write_sdpa(inst) == reference_write_sdpa(inst)
