"""Types, sorts, hyperconfigurations, and the two concrete grammars."""

import dataclasses
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcalc.syntax import (
    EMPTY,
    SEP,
    Atom,
    DDown,
    DProd,
    DUp,
    HyperConfig,
    Leaf0,
    Occurrence,
    Over,
    ParseError,
    Prod,
    Signature,
    SortError,
    Under,
    UnitI,
    UnitJ,
    config_at,
    config_str,
    figure,
    flatten,
    generalized_wrap,
    item_at,
    iter_items,
    parse_config,
    parse_flat,
    parse_type,
    replace_range,
    sep_index_at,
    sort_of_config,
    sort_of_type,
    splice_item,
    sub_slice,
    _tokenize,
    wrap_at,
)
from dcalc.terms import Leaf, term_of_config_with_addr

from helpers import (
    generate_derivations,
    random_config,
    random_type,
    reference_sort_of_type,
    reference_tokenize,
)

SIG = Signature.from_text("a 0\nb 2\nc 0\nd 2\ne 1\n")
ATOMS = (("a", 0), ("c", 0), ("e", 1), ("b", 2))


# ---------------------------------------------------------------------------
# sorts


def test_atom_sorts():
    assert sort_of_type(Atom("a", 0)) == 0
    assert sort_of_type(Atom("e", 1)) == 1
    assert sort_of_type(UnitI()) == 0
    assert sort_of_type(UnitJ()) == 1


def test_connective_sorts():
    a, e, b = Atom("a", 0), Atom("e", 1), Atom("b", 2)
    assert sort_of_type(Prod(e, b)) == 3
    assert sort_of_type(Under(a, e)) == 1
    assert sort_of_type(Over(b, e)) == 1
    assert sort_of_type(DProd(2, b, e)) == 2
    assert sort_of_type(DDown(1, e, b)) == 2
    assert sort_of_type(DUp(2, b, a)) == 3


def test_sort_violations():
    a, e, b = Atom("a", 0), Atom("e", 1), Atom("b", 2)
    with pytest.raises(SortError):
        Under(e, a)  # result sort would be negative
    with pytest.raises(SortError):
        Over(a, e)
    with pytest.raises(SortError):
        DProd(1, a, b)  # left operand must have sort >= 1
    with pytest.raises(SortError):
        DProd(3, b, a)  # wrap point beyond the left operand's sort
    with pytest.raises(SortError):
        DDown(2, e, b)
    with pytest.raises(SortError):
        DUp(3, e, a)  # index above the result sort


def unchecked(cls, *values):
    """A node of cls with the given fields, built without its constructor's
    sort check (and so without a stored sort)."""
    node = object.__new__(cls)
    for f, value in zip(dataclasses.fields(cls), values):
        object.__setattr__(node, f.name, value)
    return node


def subtypes(t):
    yield t
    for child in ("left", "right"):
        if hasattr(t, child):
            yield from subtypes(getattr(t, child))


def test_stored_type_sorts_equal_the_reference_definition():
    types = [random_type(random.Random(seed), ATOMS, 4) for seed in range(1000)]
    atoms = (("p", 0), ("q", 0), ("r", 1), ("s", 2))
    todo = list(generate_derivations(random.Random(17), atoms, 60))
    while todo:
        d = todo.pop()
        todo.extend(d.premises)
        types.append(d.conclusion.succedent)
        types.extend(item.type for _, item in iter_items(d.conclusion.antecedent) if item != SEP)
    seen = {u for t in types for u in subtypes(t)}
    assert {type(u).__name__ for u in seen} == {
        "Atom", "UnitI", "UnitJ", "Prod", "Under", "Over", "DProd", "DDown", "DUp"
    }
    for u in seen:
        assert sort_of_type(u) == reference_sort_of_type(u), u


# one case or more for each SortError branch of each connective
ILL_SORTED_TYPES = (
    (Under, Atom("e", 1), Atom("a", 0)),  # negative sort
    (Under, Prod(Atom("e", 1), Atom("b", 2)), Atom("b", 2)),
    (Over, Atom("a", 0), Atom("e", 1)),  # negative sort
    (DProd, 1, Atom("a", 0), Atom("b", 2)),  # sort-0 left operand
    (DProd, 3, Atom("b", 2), Atom("a", 0)),  # index out of range
    (DProd, 0, Atom("e", 1), Atom("a", 0)),
    (DDown, 1, UnitI(), Atom("b", 2)),  # sort-0 left operand
    (DDown, 2, Atom("e", 1), Atom("b", 2)),  # index out of range
    (DDown, 1, Atom("b", 2), Atom("a", 0)),  # negative sort
    (DUp, 1, Atom("a", 0), Atom("e", 1)),  # non-positive sort
    (DUp, 3, Atom("e", 1), Atom("a", 0)),  # index out of range
    (DUp, 0, Atom("b", 2), UnitJ()),
)


def test_ill_sorted_types_raise_the_reference_error():
    for cls, *operands in ILL_SORTED_TYPES:
        with pytest.raises(SortError) as want:
            reference_sort_of_type(unchecked(cls, *operands))
        with pytest.raises(SortError) as got:
            cls(*operands)
        assert str(got.value) == str(want.value), (cls, operands)


def test_sort_of_type_rejects_non_types():
    for bad in ("a", None, 0, EMPTY, SEP, Leaf(Atom("a", 0))):  # a term has a sort too
        with pytest.raises(TypeError, match="not a type"):
            sort_of_type(bad)
    with pytest.raises(TypeError, match="not a type"):
        Prod(Atom("a", 0), Leaf(Atom("a", 0)))


def test_stored_sort_is_not_part_of_equality_hash_or_repr():
    a, e = Atom("a", 0), Atom("e", 1)
    x, y = Under(a, e), Under(a, e)
    object.__setattr__(y, "sort", 7)
    assert x == y and hash(x) == hash(y)
    assert repr(x) == "Under(left=Atom(name='a', sort=0), right=Atom(name='e', sort=1))"


def test_a_deep_left_nested_type_builds_in_linear_time():
    a, b = Atom("a", 0), Atom("b", 2)
    start = time.perf_counter()
    t = b
    for _ in range(5000):
        t = Over(t, a)
    assert time.perf_counter() - start < 1.0
    assert sort_of_type(t) == 2
    assert sort_of_type(Over(t, Atom("e", 1))) == 1


# ---------------------------------------------------------------------------
# the type grammar


def test_parse_type_examples():
    assert parse_type("a", SIG) == Atom("a", 0)
    assert parse_type("I", SIG) == UnitI()
    assert parse_type("J", SIG) == UnitJ()
    assert parse_type("a \\ c", SIG) == Under(Atom("a", 0), Atom("c", 0))
    assert parse_type("b ^2 a", SIG) == DUp(2, Atom("b", 2), Atom("a", 0))
    assert parse_type("b^2a", SIG) == DUp(2, Atom("b", 2), Atom("a", 0))
    t = parse_type("(b @1 d) @3 e", SIG)
    assert t == DProd(3, DProd(1, Atom("b", 2), Atom("d", 2)), Atom("e", 1))


def test_parse_type_requires_parens_for_chains():
    with pytest.raises(ParseError):
        parse_type("a \\ c \\ c", SIG)
    with pytest.raises(ParseError):
        parse_type("a . c . a", SIG)


def test_parse_type_errors():
    with pytest.raises(ParseError):
        parse_type("unknown_atom", SIG)
    with pytest.raises(ParseError):
        parse_type("(a \\ c", SIG)
    with pytest.raises(ParseError):
        parse_type("a @0 c", SIG)
    with pytest.raises(ParseError):
        parse_type("a @1 c", SIG)  # sort violation surfaces as a parse error


# pieces of every token, partial tokens, whitespace, and characters that
# start no token
TEXT_PIECES = (
    "a", "Ab_9", "7", "42", "->", "=>", "[]", "@2", "!1", "^13", "+", "+1", "\\", "/",
    ".", "(", ")", ",", ";", ":", "{", "}", " ", "  ", "\t",
    "-", "=", "[", "]", "@", "#", "&", "\n", "\u00e9",
)


def test_tokenizer_agrees_with_the_reference_scanner():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(20000):
        text = "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, 10)))
        try:
            expected = reference_tokenize(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as caught:
                _tokenize(text)
            assert str(caught.value) == str(exc), text
            outcomes.add("error")
        else:
            assert _tokenize(text) == expected, text
            outcomes.add("tokens")
    assert outcomes == {"tokens", "error"}


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_type_print_parse_round_trip(seed):
    rng = random.Random(seed)
    t = random_type(rng, ATOMS, 4)
    assert parse_type(str(t), SIG) == t


# ---------------------------------------------------------------------------
# configurations


def test_figure_shapes():
    assert figure(Atom("a", 0)) == HyperConfig((Leaf0(Atom("a", 0)),))
    fig = figure(Atom("e", 1))
    assert fig == HyperConfig((Occurrence(Atom("e", 1), (HyperConfig((SEP,)),)),))
    assert config_str(fig) == "0:e,[],1:e"
    assert config_str(figure(Atom("b", 2))) == "0:b,[],1:b,[],2:b"


def test_config_parse_examples():
    assert parse_config("Lambda", SIG) == EMPTY
    assert parse_config("[]", SIG) == HyperConfig((SEP,))
    cfg = parse_config("a, []", SIG)
    assert cfg == HyperConfig((Leaf0(Atom("a", 0)), SEP))
    assert sort_of_config(cfg) == 1
    nested = parse_config("0:e,a,1:e", SIG)
    assert nested == HyperConfig(
        (Occurrence(Atom("e", 1), (HyperConfig((Leaf0(Atom("a", 0)),)),)),)
    )


def test_braced_occurrences_are_not_configuration_syntax():
    # occurrences are written in segments, 0:e,a,1:e
    for text in ("{e: a}", "{b: a; []}", "c, {e: Lambda}"):
        with pytest.raises(ParseError):
            parse_config(text, SIG)


def test_config_str_is_flat_canonical():
    nested = parse_config("0:e,a,1:e", SIG)
    assert config_str(nested) == "0:e,a,1:e"
    assert parse_config(config_str(nested), SIG) == nested


def test_flatten_parse_flat_inverse_on_examples():
    for text in ("Lambda", "[]", "a,c", "0:e,[],1:e", "0:b,a,1:b,0:e,c,1:e,2:b"):
        cfg = parse_config(text, SIG)
        assert parse_flat(flatten(cfg)) == cfg


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_flatten_round_trip_random(seed):
    rng = random.Random(seed)
    cfg = random_config(rng, ATOMS)
    assert parse_flat(flatten(cfg)) == cfg
    assert parse_config(config_str(cfg), SIG) == cfg


def test_wrap_at_replaces_kth_separator():
    outer = parse_config("[], a, []", SIG)
    inner = parse_config("c, []", SIG)
    assert config_str(wrap_at(outer, 1, inner)) == "c,[],a,[]"
    assert config_str(wrap_at(outer, 2, inner)) == "[],a,c,[]"
    with pytest.raises(ValueError):
        wrap_at(outer, 3, inner)


def test_wrap_at_reaches_nested_gaps():
    outer = parse_config("0:e,[],1:e", SIG)
    inner = parse_config("a", SIG)
    assert config_str(wrap_at(outer, 1, inner)) == "0:e,a,1:e"


def test_wrap_at_shares_the_items_off_the_filled_path():
    outer = parse_config("a,0:e,[],1:e,0:b,[],1:b,[],2:b", SIG)
    out = wrap_at(outer, 2, parse_config("c", SIG))
    assert config_str(out) == "a,0:e,[],1:e,0:b,c,1:b,[],2:b"
    assert out.items[0] is outer.items[0] and out.items[1] is outer.items[1]
    assert out.items[2].gaps[1] is outer.items[2].gaps[1]


def test_generalized_wrap_fills_all_separators():
    cfg = parse_config("[], a, []", SIG)
    g1 = parse_config("c", SIG)
    g2 = parse_config("Lambda", SIG)
    assert config_str(generalized_wrap(cfg, (g1, g2))) == "c,a"
    with pytest.raises(ValueError):
        generalized_wrap(cfg, (g1,))


def test_sep_index_counts_in_flat_order():
    cfg = parse_config("0:e,[],1:e,[]", SIG)
    assert sep_index_at(cfg, (0, 0, 0)) == 1
    assert sep_index_at(cfg, (1,)) == 2


def test_splice_item_replaces_one_item():
    cfg = parse_config("a, c", SIG)
    out = splice_item(cfg, (1,), figure(Atom("e", 1)).items)
    assert config_str(out) == "a,0:e,[],1:e"


# levels (), (1, 0) and (1, 0, 1, 0); items a, an e occurrence around c and
# another e occurrence around a separator
NESTED = "a,0:e,c,0:e,[],1:e,1:e"
BAD_LEVELS = {
    "odd": ((1,), (1, 0, 1)),
    "negative": ((-1, 0), (1, -1), (1, 0, -1, 0)),
    "out of range": ((2, 0), (1, 1), (1, 0, 2, 0)),
    "through a non-occurrence": ((0, 0), (1, 0, 0, 0), (1, 0, 1, 0, 0, 0)),
}


@pytest.mark.parametrize("kind", sorted(BAD_LEVELS))
def test_address_helpers_reject_bad_levels(kind):
    cfg = parse_config(NESTED, SIG)
    for level in BAD_LEVELS[kind]:
        calls = (
            lambda: config_at(cfg, level),
            lambda: item_at(cfg, level + (0,)),
            lambda: sub_slice(cfg, level, 0, 0),
            lambda: replace_range(cfg, level, 0, 0, ()),
            lambda: splice_item(cfg, level + (0,), ()),
            lambda: term_of_config_with_addr(cfg, level + (0,)),
        )
        for call in calls:
            with pytest.raises(IndexError):
                call()


def test_address_helpers_bound_the_item_index_and_the_range():
    cfg = parse_config(NESTED, SIG)
    for level in ((), (1, 0), (1, 0, 1, 0)):
        n = len(config_at(cfg, level).items)
        for i in (-1, n):
            for call in (item_at, term_of_config_with_addr, lambda c, a: splice_item(c, a, ())):
                with pytest.raises(IndexError):
                    call(cfg, level + (i,))
        for start, end in ((-1, 0), (0, n + 1), (1, 0)):
            with pytest.raises(IndexError):
                sub_slice(cfg, level, start, end)
            with pytest.raises(IndexError):
                replace_range(cfg, level, start, end, ())
    for addr in ((), (1, 0)):  # item addresses have odd length
        for call in (item_at, term_of_config_with_addr):
            with pytest.raises(IndexError):
                call(cfg, addr)


def test_address_helpers_walk_a_deep_level_without_recursion():
    # HyperConfig's generated == recurses, so results are compared as text
    depth = 2000
    a, c = Leaf0(Atom("a", 0)), Leaf0(Atom("c", 0))
    cfg = HyperConfig((a,))
    for _ in range(depth):
        cfg = HyperConfig((Occurrence(Atom("e", 1), (cfg,)),))
    level = (0, 0) * depth
    text = config_str(cfg)
    assert text == "0:e," * depth + "a" + ",1:e" * depth
    assert flatten(config_at(cfg, level)) == (a,)
    assert item_at(cfg, level + (0,)) == a
    assert flatten(sub_slice(cfg, level, 0, 1)) == (a,)
    assert config_str(replace_range(cfg, level, 1, 1, (c,))) == text.replace("a", "a,c")
    assert config_str(splice_item(cfg, level + (0,), (SEP,))) == text.replace("a", "[]")


# ---------------------------------------------------------------------------
# signatures


def test_signature_text_round_trip():
    sig = Signature.from_text("# comment\nnoun 0\nverb 2\n\n")
    assert sig.sort("noun") == 0
    assert sig.sort("verb") == 2
    with pytest.raises(ParseError):
        sig.sort("adjective")
