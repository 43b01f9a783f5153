"""Oracle-level checks: encoding, parsing, membership, generators."""

import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from kumsim.blocklang import (
    FormatError, Instance, NegativeKind, encode, gen_all_equal,
    gen_negative, gen_positive, member, parse,
)


def test_encode_examples():
    assert encode(Instance(2, ("0", "1", "0", "1"), "00", "10")) == "0@1@0@1#00#10#"
    assert encode(Instance(1, ("", ""), "0", "1")) == "@#0#1#"
    assert encode(Instance(2, ("1", "1", "1", "1"), "00", "11")) == "1@1@1@1#00#11#"


def test_instance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Instance(0, (), "", "")
    with pytest.raises(ValueError):
        Instance(2, ("0", "1", "0"), "00", "10")       # 3 blocks
    with pytest.raises(ValueError):
        Instance(2, ("0", "1", "0", "10"), "00", "10")  # long block
    with pytest.raises(ValueError):
        Instance(2, ("0", "1", "0", "1"), "0", "10")    # short index
    with pytest.raises(ValueError):
        Instance(2, ("0", "1", "0", "2"), "00", "10")   # non-bit block
    with pytest.raises(ValueError):
        Instance(2, ("0", "1", "0", "1"), "00", "1@")   # non-bit index


def test_parse_round_trips_encode():
    inst = Instance(2, ("0", "1", "0", "1"), "00", "10")
    assert parse(encode(inst)) == inst
    inst1 = Instance(1, ("", ""), "1", "1")
    assert parse(encode(inst1)) == inst1


def test_parse_error_kinds_and_positions():
    with pytest.raises(FormatError) as e:
        parse("0@1@0#00#01#")
    assert e.value.kind is NegativeKind.WRONG_BLOCK_COUNT

    with pytest.raises(FormatError) as e:
        parse("0@1@0@1#00#10")
    assert e.value.kind is NegativeKind.TRUNCATED_TAIL
    assert e.value.position == 13

    with pytest.raises(FormatError) as e:
        parse("0@11@0@1#00#10#")
    assert e.value.kind is NegativeKind.WRONG_BLOCK_LENGTH
    assert e.value.position == 2   # block 1 starts after "0@"

    with pytest.raises(FormatError) as e:
        parse("0@1@0@1#00#10#1")
    assert e.value.kind is NegativeKind.BAD_SUFFIX
    assert e.value.position == 14

    with pytest.raises(FormatError) as e:
        parse("0@1@0@1#0a#10#")
    assert e.value.kind is NegativeKind.BAD_ALPHABET
    assert e.value.position == 9

    with pytest.raises(FormatError) as e:
        parse("0@1@0@1#000#10#")   # index too long for n=2
    assert e.value.kind is NegativeKind.MISSING_SEPARATOR

    with pytest.raises(FormatError) as e:
        parse("0@1@0@1#0@#10#")    # '@' inside an index field
    assert e.value.kind is NegativeKind.MISSING_SEPARATOR
    assert e.value.position == 9


# One malformed string per parse defect, with its pinned message.  The
# bad-alphabet string has two bad characters; the first one is reported.
PARSE_DEFECTS = {
    NegativeKind.TRUNCATED_TAIL: ("0@1@0@1#00#10", 13),
    NegativeKind.WRONG_BLOCK_LENGTH: ("0@11@0@1#00#10#", 2),
    NegativeKind.WRONG_BLOCK_COUNT: ("0@1@0#00#01#", 5),
    NegativeKind.MISSING_SEPARATOR: ("0@1@0@1#0@#10#", 9),
    NegativeKind.BAD_SUFFIX: ("0@1@0@1#00#10#1", 14),
    NegativeKind.BAD_ALPHABET: ("0@1@0@1#0a#1b#", 9),
}


def test_format_error_message_kind_and_position_are_pinned():
    for kind in NegativeKind:
        if kind is NegativeKind.VALUE_MISMATCH:   # well-formed: parse passes
            assert member("0@1@0@1#00#01#") is False
            err = FormatError(kind, 4)
        else:
            s, position = PARSE_DEFECTS[kind]
            with pytest.raises(FormatError) as info:
                parse(s)
            err = info.value
            assert err.position == position
        assert err.kind is kind
        assert isinstance(err, ValueError)
        assert str(err) == "%s at position %d" % (kind.value, err.position)
    assert str(FormatError(NegativeKind.BAD_ALPHABET, 9)) == (
        "bad-alphabet at position 9")


def test_parse_rejects_n_zero_shapes():
    for s in ("#0#1#", "0#0#0#", "##0#1#"):
        with pytest.raises(FormatError):
            parse(s)
        assert not member(s)


def test_member_examples():
    assert member("0@1@0@1#00#10#") is True
    assert member("0@1@0@1#00#01#") is False
    assert member("@#0#1#") is True   # n=1: both blocks empty


def test_member_is_total():
    for s in ("", "#", "@", "0", "abc", "@#0#1#junk", "0@1#0#1#"):
        assert member(s) in (True, False)


def test_gen_positive_always_member():
    rng = random.Random(0xC0FFEE)
    for n in range(1, 9):
        for _ in range(20):
            inst = gen_positive(n, rng)
            s = encode(inst)
            assert member(s)
            assert parse(s) == inst
    with pytest.raises(ValueError):
        gen_positive(0, rng)


def test_gen_positive_y_matches_x_by_construction():
    rng = random.Random(11)
    inst = gen_positive(6, rng)
    assert inst.blocks[int(inst.x, 2)] == inst.blocks[int(inst.y, 2)]


def test_gen_all_equal_shape():
    inst = gen_all_equal(4)
    assert len(set(inst.blocks)) == 1
    assert len(inst.blocks) == 16
    assert member(encode(inst))
    inst1 = gen_all_equal(1)
    assert inst1.blocks == ("", "")


def test_gen_negative_every_kind_fails_member():
    rng = random.Random(1234)
    for n in (2, 3, 5, 8):
        for kind in NegativeKind:
            for _ in range(10):
                s = gen_negative(n, kind, rng)
                assert not member(s), (n, kind, s)


def test_generator_self_checks_survive_python_O():
    # With member() lying, every generator must refuse its own output,
    # also under -O, which strips assert statements.
    script = textwrap.dedent("""
        import random
        from kumsim import blocklang
        NK = blocklang.NegativeKind
        real = blocklang.member
        blocklang.member = lambda s: not real(s)
        calls = [lambda: blocklang.gen_positive(3, random.Random(1)),
                 lambda: blocklang.gen_all_equal(3),
                 lambda: blocklang.gen_negative(3, NK.VALUE_MISMATCH,
                                                random.Random(1)),
                 # the last site: member() must lie only about the mutant
                 lambda: blocklang.gen_negative(3, NK.BAD_SUFFIX,
                                                random.Random(1))]
        for i, call in enumerate(calls):
            if i == 3:
                blocklang.member = lambda s: s.endswith("#") == real(s)
            try:
                call()
            except RuntimeError:
                continue
            raise SystemExit("self-check %d did not fire" % i)
        print("ok", __debug__)
    """)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.split() == ["ok", "False"]


def test_gen_negative_n1_feasible_kinds():
    rng = random.Random(99)
    for kind in NegativeKind:
        if kind is NegativeKind.VALUE_MISMATCH:
            with pytest.raises(ValueError):
                gen_negative(1, kind, rng)
        else:
            for _ in range(10):
                assert not member(gen_negative(1, kind, rng))


def test_gen_negative_value_mismatch_is_well_formed():
    rng = random.Random(5)
    for _ in range(20):
        s = gen_negative(4, NegativeKind.VALUE_MISMATCH, rng)
        inst = parse(s)   # must not raise: defect is semantic, not syntactic
        assert inst.blocks[int(inst.x, 2)] != inst.blocks[int(inst.y, 2)]


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    k = n // 2
    bits = st.text(alphabet="01", min_size=k, max_size=k)
    blocks = tuple(draw(bits) for _ in range(1 << n))
    idx = st.text(alphabet="01", min_size=n, max_size=n)
    return Instance(n, blocks, draw(idx), draw(idx))


@given(instances())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(inst):
    assert parse(encode(inst)) == inst
    assert member(encode(inst)) == (inst.blocks[int(inst.x, 2)]
                                    == inst.blocks[int(inst.y, 2)])


@given(st.text(alphabet="01@#缪x", max_size=24))
@settings(max_examples=120, deadline=None)
def test_parse_never_crashes_and_member_is_bool(s):
    try:
        inst = parse(s)
        assert encode(inst) == s   # parse is a true inverse on its image
    except FormatError as e:
        assert 0 <= e.position <= len(s)
    assert isinstance(member(s), bool)


@st.composite
def near_words(draw):
    """Word-shaped strings: n may be 0, the block count may be off by one
    and one block, one index field or the suffix may be mangled."""
    n = draw(st.integers(0, 5))
    k = n // 2
    count = draw(st.sampled_from([1 << n, 1 << (n + 1), (1 << n) + 1]))
    blocks = [draw(st.text(alphabet="01", min_size=k, max_size=k))
              for _ in range(count)]
    fields = [draw(st.text(alphabet="01", min_size=n, max_size=n))
              for _ in range(2)]
    suffix = ""
    defect = draw(st.sampled_from(["none", "none", "block", "field",
                                   "suffix"]))
    if defect == "block":
        blocks[draw(st.integers(0, count - 1))] += draw(
            st.sampled_from(["0", "1", "@"]))
    elif defect == "field":
        fields[draw(st.integers(0, 1))] += draw(st.sampled_from(["0", "@"]))
    elif defect == "suffix":
        suffix = draw(st.sampled_from(["0", "#", "@"]))
    return "@".join(blocks) + "#" + "#".join(fields) + "#" + suffix


@given(st.one_of(near_words(), st.text(alphabet="01@#", max_size=24)))
@settings(max_examples=300, deadline=None)
def test_parse_accepts_only_valid_instance_fields(s):
    """Whatever parse accepts passes Instance's own checks, gives an equal
    instance and agrees with member."""
    try:
        inst = parse(s)
    except FormatError:
        return
    again = Instance(inst.n, inst.blocks, inst.x, inst.y)
    assert again == inst
    assert type(inst.blocks) is tuple and encode(again) == s
    assert member(s) == again.is_member()


def test_gen_golden_pinned():
    # seeded generation is part of the contract: n=2, seed 7 must keep
    # producing this exact line (see tests/data/gen_golden.txt)
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "gen_golden.txt"
    want = golden.read_text()
    got = encode(gen_positive(2, random.Random(7))) + "\n"
    assert got == want
