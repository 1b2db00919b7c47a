"""Structural terms: rewriting, translation to configurations, extraction."""

import dataclasses
import gc
import hashlib
import json
import random
import re
import time
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcalc.syntax import (
    Atom,
    HyperConfig,
    Leaf0,
    ParseError,
    Prod,
    SEP,
    Signature,
    SortError,
    config_at,
    config_str,
    figure,
    figure_items,
    flatten,
    iter_items,
    parse_config,
    sort_of_config,
    wrap_at,
)
from dcalc.terms import (
    BudgetError,
    Cat,
    ConstI,
    ConstJ,
    ExtractionError,
    INVERSE_RULE,
    Leaf,
    RULE_NAMES,
    RewriteTrace,
    RuleApp,
    RuleError,
    TraceStep,
    Tracer,
    WrapT,
    _apply,
    apply_rule,
    enumerate_rule_apps,
    equiv,
    extract,
    extractable,
    invert_trace,
    is_canonical,
    is_step,
    iter_subterms,
    normalize,
    parse_term,
    replace_at,
    sharp,
    sort_of_term,
    subterm_at,
    term_of_config,
    term_of_config_with_addr,
    trace_from_obj,
    trace_to_obj,
)

from helpers import (
    ParentCat,
    ParentWrapT,
    bounded_equiv_oracle,
    enumerate_terms,
    parent_apply,
    parent_invert_trace,
    parent_nodes,
    parent_normalize,
    parent_sharp,
    random_config,
    random_term,
    reference_flatten,
    reference_is_canonical,
    reference_replace_at,
    reference_rule_apps,
    reference_sharp,
    reference_sort_of_term,
    reference_term_of_config,
    reference_term_of_config_with_addr,
    reference_wrap_at,
    rule_app,
    term_size,
    uniqueness_check,
)

SIG = Signature.from_text("a 0\nb 2\nc 0\nd 2\ne 1\n")
ATOMS = (("a", 0), ("c", 0), ("e", 1), ("b", 2))

A = Leaf(Atom("a", 0))
C = Leaf(Atom("c", 0))
E = Leaf(Atom("e", 1))
B = Leaf(Atom("b", 2))


def run(trace):
    """Replay a trace step by step; returns the final term."""
    cur = trace.start
    for step in trace.steps:
        cur = apply_rule(cur, step.app)
        assert cur == step.result
    return cur


# ---------------------------------------------------------------------------
# the term grammar


def test_parse_term_examples():
    assert parse_term("II", SIG) == ConstI()
    assert parse_term("JJ", SIG) == ConstJ()
    assert parse_term("a", SIG) == A
    assert parse_term("(a + c)", SIG) == Cat(A, C)
    assert parse_term("(e +1 c)", SIG) == WrapT(1, E, C)
    assert parse_term("((JJ + a) +1 c)", SIG) == WrapT(1, Cat(ConstJ(), A), C)


def test_parse_term_rejects_bad_wraps():
    with pytest.raises(SortError):
        parse_term("(a +1 c)", SIG)
    with pytest.raises(SortError):
        parse_term("(b +3 c)", SIG)


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_term_print_parse_round_trip(seed):
    rng = random.Random(seed)
    t = random_term(rng, ATOMS, 4)
    assert parse_term(str(t), SIG) == t


# ---------------------------------------------------------------------------
# sharp and the canonical term of a configuration


def test_sharp_examples():
    assert config_str(sharp(ConstI())) == "Lambda"
    assert config_str(sharp(ConstJ())) == "[]"
    assert config_str(sharp(Cat(ConstI(), A))) == "a"
    assert config_str(sharp(WrapT(1, E, A))) == "0:e,a,1:e"
    assert config_str(sharp(WrapT(2, B, Cat(A, C)))) == "0:b,[],1:b,a,c,2:b"


def test_term_of_config_is_cons_shaped():
    assert str(term_of_config(parse_config("Lambda", SIG))) == "II"
    assert str(term_of_config(parse_config("a,c", SIG))) == "(a + (c + II))"
    assert (
        str(term_of_config(parse_config("0:e,[],1:e", SIG)))
        == "((e +1 (JJ + II)) + II)"
    )


def test_term_of_config_with_addr_returns_leaf_path():
    cfg = parse_config("a,0:e,c,1:e", SIG)
    t, path = term_of_config_with_addr(cfg, (1,))
    assert subterm_at(t, path) == E
    assert flatten(sharp(t)) == flatten(cfg)


def test_term_of_config_on_a_long_flat_configuration():
    cfg = HyperConfig((Leaf0(A.type),) * 5000)
    t = term_of_config(cfg)  # the per-item recursive builder overflowed here
    assert is_canonical(t)
    assert flatten(sharp(t)) == flatten(cfg)
    t, path = term_of_config_with_addr(cfg, (4999,))
    assert path == (1,) * 4999 + (0,)
    assert subterm_at(t, path) == A


def _term_and_path(build, cfg, addr):
    try:
        return build(cfg, addr)
    except IndexError:
        return IndexError


def test_term_of_config_agrees_with_the_reference_definition():
    rng = random.Random(105)
    outcomes = set()
    for _ in range(1000):
        cfg = random_config(rng, ATOMS)
        assert term_of_config(cfg) == reference_term_of_config(cfg), str(cfg)
        addrs = [()]
        for addr, item in iter_items(cfg):
            level = addr[:-1]
            addrs += [
                addr,
                level + (-1,),  # negative
                level + (len(config_at(cfg, level).items),),  # past the end
                addr + (0, 0),  # below a leaf or separator, or into gap 0
                addr + (-1, 0),  # a negative or missing gap
                addr + (len(getattr(item, "gaps", ())), 0),
                addr + (0,),  # even length
            ]
        for addr in addrs:
            want = _term_and_path(reference_term_of_config_with_addr, cfg, addr)
            assert _term_and_path(term_of_config_with_addr, cfg, addr) == want, (str(cfg), addr)
            outcomes.add(want is IndexError)
    assert outcomes == {False, True}


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_sharp_splits_term_of_config(seed):
    rng = random.Random(seed)
    cfg = random_config(rng, ATOMS)
    assert sharp(term_of_config(cfg)) == cfg


def test_sharp_agrees_with_the_reference_definition():
    universe = enumerate_terms((A, E, B, ConstI(), ConstJ()), 4)
    assert len(universe) == 29535
    rng = random.Random(101)
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    randoms = [random_term(rng, atoms, rng.randint(1, 6)) for _ in range(1000)]
    rewritten = [apply_rule(t, app) for t in randoms[:100] for app in enumerate_rule_apps(t)]
    for t in universe + randoms + rewritten:
        want = reference_sharp(t)
        got = sharp(t)
        assert got == want, t
        assert flatten(got) == reference_flatten(want), t


def test_wrap_at_agrees_with_the_reference_definition():
    rng = random.Random(102)
    for _ in range(500):
        cfg = random_config(rng, ATOMS)
        filler = random_config(rng, ATOMS, budget=4)
        for k in range(0, sort_of_config(cfg) + 2):
            try:
                want = reference_wrap_at(cfg, k, filler)
            except SortError as exc:
                with pytest.raises(SortError) as got:
                    wrap_at(cfg, k, filler)
                assert str(got.value) == str(exc)
            else:
                assert wrap_at(cfg, k, filler) == want


def test_sharp_on_deeply_nested_terms():
    # 900 wraps, each into the first gap of the last: the image nests 900 deep
    chain = B
    for _ in range(900):
        chain = WrapT(1, chain, E)
    image = sharp(chain)
    assert len(flatten(image)) == 1805
    assert config_str(image).startswith("0:b,0:e,0:e,")
    # its items, read off those tokens, flatten back to them
    assert flatten(HyperConfig(image.items)) == flatten(image)
    # a right-nested concatenation of 5,001 leaves
    t = A
    for _ in range(5000):
        t = Cat(A, t)
    assert len(flatten(sharp(t))) == 5001


def test_stored_term_sorts_equal_the_reference_definition():
    universe = enumerate_terms((A, E, B, ConstI(), ConstJ()), 4)
    assert len(universe) == 29535
    rng = random.Random(103)
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    randoms = [random_term(rng, atoms, rng.randint(1, 6)) for _ in range(1000)]
    for t in universe + randoms:
        assert sort_of_term(t) == reference_sort_of_term(t), t


def test_ill_sorted_wraps_and_non_terms():
    for i, left, want in (
        (1, A, "wrap on a sort-0 term a"),
        (1, Cat(A, ConstI()), "wrap on a sort-0 term (a + II)"),
        (3, B, "wrap index 3 out of range 1..2"),
        (0, Cat(E, A), "wrap index 0 out of range 1..1"),
    ):
        with pytest.raises(SortError) as got:
            WrapT(i, left, E)
        assert str(got.value) == want
    for bad in ("a", None, Atom("a", 0), sharp(A)):
        with pytest.raises(TypeError, match="not a structural term"):
            sort_of_term(bad)
        with pytest.raises(TypeError, match="not a structural term"):
            Cat(A, bad)
        with pytest.raises(TypeError, match="not a structural term"):
            WrapT(1, bad, A)
        # sharp and normalize each reach a non-term at their own last branch
        for walk in (sharp, normalize):
            with pytest.raises(TypeError) as got:
                walk(bad)
            assert str(got.value) == "not a structural term: %r" % (bad,)
    with pytest.raises(TypeError, match="not a type"):
        Leaf(A)


def test_stored_term_sort_is_not_part_of_equality_hash_or_repr():
    x, y = WrapT(1, B, A), WrapT(1, B, A)
    object.__setattr__(y, "sort", 7)
    assert x == y and hash(x) == hash(y)
    assert repr(x) == (
        "WrapT(i=1, left=Leaf(type=Atom(name='b', sort=2)), right=Leaf(type=Atom(name='a', sort=0)))"
    )
    assert [f.name for f in dataclasses.fields(Cat) if f.compare or f.repr] == ["left", "right"]


def test_term_nodes_keep_the_plain_dataclass_contract():
    # Cat and WrapT build through a hand-written __init__: their fields,
    # match arguments, ==, hash, repr, dataclasses.replace and the errors
    # they raise are those of the plain dataclasses they were (ParentCat
    # and ParentWrapT, which checked their sorts in __post_init__)
    def shape(cls):
        return [(f.name, f.init, f.repr, f.compare, f.hash) for f in dataclasses.fields(cls)]

    for cls, parent in ((Cat, ParentCat), (WrapT, ParentWrapT)):
        assert shape(cls) == shape(parent)
        assert cls.__match_args__ == parent.__match_args__
    rng = random.Random(31)
    terms = RULE_EXAMPLES + tuple(random_term(rng, ATOMS, 4) for _ in range(300))
    nodes = [t for t in terms if type(t) in (Cat, WrapT)]
    for t in nodes:
        old = parent_nodes(t)
        assert repr(t) == repr(old) and hash(t) == hash(old) and t.sort == old.sort
        assert t == type(t)(*(getattr(t, f) for f in t.__match_args__))
        for field in ("left", "right"):
            new = getattr(t, "left" if field == "right" else "right")
            try:
                got = dataclasses.replace(t, **{field: new})
            except SortError as exc:
                with pytest.raises(SortError, match="^%s$" % re.escape(str(exc))):
                    dataclasses.replace(old, **{field: parent_nodes(new)})
            else:
                want = dataclasses.replace(old, **{field: parent_nodes(new)})
                assert repr(got) == repr(want) and got.sort == want.sort
        with pytest.raises(ValueError) as got:
            dataclasses.replace(t, sort=1)
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(got.value))):
            dataclasses.replace(old, sort=1)
    for s, t in zip(nodes, nodes[1:] + nodes[:1]):
        assert (s == t) == (parent_nodes(s) == parent_nodes(t))
    assert len({*nodes}) == len({*map(parent_nodes, nodes)})
    # the same exception type and text for a bad index or left operand and
    # for a non-term on either side, checked in the same order
    for build, args in (
        (WrapT, (0, B, A)),
        (WrapT, (3, B, A)),
        (WrapT, (1, A, E)),
        (WrapT, (0, A, "x")),
        (WrapT, (1, "x", A)),
        (WrapT, (1, B, "x")),
        (WrapT, (1, sharp(B), None)),
        (Cat, ("x", None)),
        (Cat, (A, Atom("a", 0))),
    ):
        parent = ParentWrapT if build is WrapT else ParentCat
        with pytest.raises((SortError, TypeError)) as got:
            build(*args)
        with pytest.raises(got.type, match="^%s$" % re.escape(str(got.value))):
            parent(*args)


def test_stored_flat_tokens_are_not_part_of_equality_hash_or_repr():
    x = sharp(WrapT(1, B, A))
    y = HyperConfig(x.items)
    assert x._flat == flatten(y) and y._flat is None
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    fig = figure(B.type)  # sharp stored its flat tokens on it
    assert fig._flat == flatten(HyperConfig(fig.items)) and fig == HyperConfig(fig.items)
    assert [f.name for f in dataclasses.fields(HyperConfig)] == ["items"]


def test_sharp_builds_items_only_when_they_are_read():
    # random terms sharped as the rewrite benchmark's op sharps them: the
    # term, then each one-step successor, of which only flatten is read
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    for seed in range(500):
        rng = random.Random(seed)
        t = random_term(rng, atoms, rng.randint(1, 6))
        image = flatten(sharp(t))
        successors = [sharp(apply_rule(t, app)) for app in enumerate_rule_apps(t)]
        assert all(flatten(s) == image for s in successors), t
        assert not any("items" in vars(s) for s in successors), t
        want = parent_sharp(t)
        got = sharp(t)
        assert "items" not in vars(got) and not hasattr(got, "gaps")
        assert got.items == want.items and "items" in vars(got), t
        assert type(got) is HyperConfig and got._flat == flatten(want), t
        # ==, hash and repr each read the items of a fresh image
        assert sharp(t) == want and want == sharp(t), t
        assert hash(sharp(t)) == hash(want) and repr(sharp(t)) == repr(want), t


def test_a_long_wrap_chain_builds_in_linear_time():
    start = time.perf_counter()
    chain = B
    for _ in range(5000):
        chain = WrapT(1, chain, E)
    assert time.perf_counter() - start < 1.0
    assert sort_of_term(chain) == 2
    # each wrap of the chain reads its separator's offset, so sharp walks no
    # nested path; it still copies the tokens once per wrap
    start = time.perf_counter()
    image = sharp(chain)
    assert time.perf_counter() - start < 1.0
    assert len(flatten(image)) == 10005


def test_stored_images_change_no_value():
    # criterion 2's canonical terms and random terms, each built three times:
    # the one-step successors of one copy go through sharp before the term
    # does, those of another after it, so they both miss and reuse the images
    # that the term's unchanged subterms store; the third copy never meets
    # sharp.  Every successor has the term's image (criterion 1), so each one
    # is compared with the term's image under the parent copy of sharp and
    # under the recursive definition
    rng = random.Random(202)
    configs = [random_config(rng, ATOMS, budget=12, nesting=3) for _ in range(1000)]
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))

    def random_case(seed):
        rng = random.Random(seed)
        return random_term(rng, atoms, rng.randint(1, 6))

    builds = [lambda cfg=cfg: term_of_config(cfg) for cfg in configs]
    builds += [lambda seed=seed: random_case(seed) for seed in range(1000)]
    stored = 0
    for build in builds:
        before, after, fresh = build(), build(), build()
        image = parent_sharp(fresh)
        assert image == reference_sharp(fresh), fresh
        apps = enumerate_rule_apps(fresh)
        firsts = [apply_rule(before, app) for app in apps]
        assert all(sharp(s) == image for s in firsts), fresh
        assert sharp(before) == sharp(after) == image, fresh
        seconds = [apply_rule(after, app) for app in apps]
        # a rewrite builds its path and reduct afresh: only the subterms it
        # shares with the term may come with a stored image
        shared = {id(sub) for _, sub in iter_subterms(after)}
        for s in seconds:
            todo = [s]
            for node in todo:
                if id(node) not in shared and type(node) in (Cat, WrapT):
                    assert node._image is None, (fresh, s)
                    todo += (node.left, node.right)
        assert all(sharp(s) == image for s in seconds), fresh
        assert firsts == seconds and list(map(hash, firsts)) == list(map(hash, seconds))
        for t in (before, after):
            assert t == fresh and hash(t) == hash(fresh)
            assert repr(t) == repr(fresh) and str(t) == str(fresh)
            for _, sub in iter_subterms(t):
                if getattr(sub, "_image", None) is not None:
                    assert sub._image == _walked_image(parent_sharp(sub)), sub
                    stored += 1
    assert stored > 0


def _walked_image(cfg):
    """(flat tokens, separator offsets) of cfg, which must carry no flat
    tokens of its own: flatten walks its items."""
    assert cfg._flat is None
    flat = flatten(cfg)
    return flat, tuple(n for n, tok in enumerate(flat) if tok == SEP)


def _assert_stored_flats_are_walks(t):
    """sharp(t)'s flat tokens, and the image stored on each node of t, are
    the plain walk's of the parent copy of sharp; each leaf's figure
    carries the plain walk's flatten of its items."""
    assert sharp(t)._flat == flatten(parent_sharp(t)), t
    todo = [t]
    for node in todo:
        if type(node) is Leaf:
            fig = figure(node.type)
            assert fig._flat == flatten(HyperConfig(fig.items)), node
        elif type(node) in (Cat, WrapT):
            if node._image is not None:
                assert node._image == _walked_image(parent_sharp(node)), node
            todo += (node.left, node.right)


def test_stored_flat_tokens_equal_the_plain_walk():
    # criterion 2's canonical terms; random terms and all their one-step
    # successors, whose sharp runs before the term's own sharp for one copy
    # and after it for another; the 900-wrap chain and the 5,001-leaf spine
    rng = random.Random(202)
    for _ in range(1000):
        _assert_stored_flats_are_walks(term_of_config(random_config(rng, ATOMS, budget=12, nesting=3)))
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    for seed in range(1000):
        rngs = random.Random(seed), random.Random(seed)
        before, after = (random_term(rng, atoms, rng.randint(1, 6)) for rng in rngs)
        apps = enumerate_rule_apps(before)
        for s in [apply_rule(before, app) for app in apps] + [before, after]:
            _assert_stored_flats_are_walks(s)
        for app in apps:
            _assert_stored_flats_are_walks(apply_rule(after, app))
    chain = B
    for _ in range(900):
        chain = WrapT(1, chain, E)
    spine = A
    for _ in range(5000):
        spine = Cat(A, spine)
    for t in (chain, spine):
        _assert_stored_flats_are_walks(t)


def _retained_bytes(work):
    """Bytes that work() allocates and still holds once it has returned and
    its result is dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_stored_images_retain_little_memory():
    # a right-nested spine of 5,001 leaves and the 1,000-wrap prefix: the
    # operands on their heavy paths hold more than two thirds of their
    # parents' flat tokens, so sharp stores almost nothing on them
    spine = A
    for _ in range(5000):
        spine = Cat(A, spine)
    prefix = B
    for _ in range(1000):
        prefix = WrapT(1, prefix, E)
    for t in (spine, prefix):
        assert _retained_bytes(lambda: sharp(t)) < 2_000_000
    # a spine grown one Cat at a time with sharp after each step, kept alive
    # in `grown`: storing each root's image would keep every prefix's image,
    # quadratic in all
    grown = []

    def grow(with_sharp):
        t = A
        for _ in range(1000):
            t = Cat(A, t)
            if with_sharp:
                sharp(t)
        grown.append(t)

    with_sharp, without = _retained_bytes(lambda: grow(True)), _retained_bytes(lambda: grow(False))
    assert with_sharp - without < 2_000_000, (with_sharp, without)


def test_replace_at_agrees_with_the_reference_definition():
    rng = random.Random(104)
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    outcomes = set()
    for _ in range(2000):
        t = random_term(rng, atoms, rng.randint(1, 5))
        new = random_term(rng, atoms, rng.randint(0, 2))
        for _ in range(10):
            path = tuple(rng.choice((0, 1, 0, 1, 2, -1)) for _ in range(rng.randint(0, 5)))
            try:
                want = reference_replace_at(t, path, new)
            except (IndexError, SortError) as exc:
                with pytest.raises(type(exc)) as got:
                    replace_at(t, path, new)
                assert str(got.value) == str(exc), (t, path, new)
                outcomes.add(type(exc))
            else:
                assert replace_at(t, path, new) == want, (t, path, new)
                outcomes.add(want == t)
    # every branch was reached: errors of both kinds, changed and unchanged terms
    assert outcomes == {IndexError, SortError, False, True}


def test_replace_at_in_a_long_wrap_chain():
    chain = B
    for _ in range(5000):
        chain = WrapT(1, chain, E)
    d = Leaf(Atom("d", 2))
    path = (0,) * 5000
    got = replace_at(chain, path, d)  # the recursive definition overflows here
    assert subterm_at(got, path) == d
    assert subterm_at(got, path[:-1]) == WrapT(1, d, E)
    assert subterm_at(got, path[:-1]) is not subterm_at(chain, path[:-1])
    assert got.right is chain.right and sort_of_term(got) == 2


def test_path_steps_other_than_0_or_1_raise():
    t = Cat(A, WrapT(1, E, C))
    for path in ((2,), (1, 2), (-1, 0)):
        with pytest.raises(IndexError, match="bad path step"):
            subterm_at(t, path)
        with pytest.raises(IndexError, match="bad path step"):
            replace_at(t, path, A)
    with pytest.raises(ExtractionError, match="does not address a type leaf"):
        extractable(Cat(A, C), (2,))


# ---------------------------------------------------------------------------
# the rewrite rules


def test_unit_rules():
    assert apply_rule(A, RuleApp("UnitI-L-add", ())) == Cat(ConstI(), A)
    assert apply_rule(Cat(ConstI(), A), RuleApp("UnitI-L-drop", ())) == A
    assert apply_rule(A, RuleApp("UnitI-R-add", ())) == Cat(A, ConstI())
    assert apply_rule(A, RuleApp("UnitJ-L-add", ())) == WrapT(1, ConstJ(), A)
    got = apply_rule(B, RuleApp("UnitJ-i-add", (), (("i", 2),)))
    assert got == WrapT(2, B, ConstJ())
    assert apply_rule(got, RuleApp("UnitJ-i-drop", ())) == B


def test_unit_rule_shape_errors():
    with pytest.raises(RuleError):
        apply_rule(A, RuleApp("UnitI-L-drop", ()))
    with pytest.raises(RuleError):
        apply_rule(A, RuleApp("UnitJ-i-add", ()))  # the index is required
    with pytest.raises(RuleError):
        apply_rule(E, RuleApp("UnitJ-i-add", (), (("i", 2),)))


def test_continuous_associativity():
    t = Cat(Cat(A, C), E)
    fwd = apply_rule(t, RuleApp("AsscC-fwd", ()))
    assert fwd == Cat(A, Cat(C, E))
    assert apply_rule(fwd, RuleApp("AsscC-bwd", ())) == t


def test_split_wrap():
    t = Cat(E, A)
    left = apply_rule(t, RuleApp("SW-left-fwd", ()))
    assert left == WrapT(1, Cat(ConstJ(), A), E)
    assert apply_rule(left, RuleApp("SW-left-bwd", ())) == t
    right = apply_rule(t, RuleApp("SW-right-fwd", ()))
    assert right == WrapT(2, Cat(E, ConstJ()), A)
    assert apply_rule(right, RuleApp("SW-right-bwd", ())) == t


def test_discontinuous_associativity():
    t = WrapT(2, B, WrapT(1, E, A))
    fwd = apply_rule(t, RuleApp("AsscD1", ()))
    assert fwd == WrapT(2, WrapT(2, B, E), A)
    assert apply_rule(fwd, RuleApp("AsscD2", ())) == t


def test_mixed_permutation_disjoint_right():
    # outer wrap point strictly right of the inner operand's span
    t = WrapT(1, WrapT(1, B, A), E)
    got = apply_rule(t, RuleApp("MixPerm1-fwd", ()))
    assert got == WrapT(1, WrapT(2, B, E), A)
    assert apply_rule(got, RuleApp("MixPerm1-bwd", ())) == t


def test_mixed_permutation_disjoint_left():
    t = WrapT(1, WrapT(2, B, A), E)
    got = apply_rule(t, RuleApp("MixPerm2-fwd", ()))
    assert got == WrapT(2, WrapT(1, B, E), A)
    assert apply_rule(got, RuleApp("MixPerm2-bwd", ())) == t


def test_mixed_permutation_guards():
    overlapping = WrapT(1, WrapT(1, B, E), A)  # the wrap point falls inside
    with pytest.raises(RuleError):
        apply_rule(overlapping, RuleApp("MixPerm1-fwd", ()))
    with pytest.raises(RuleError):
        apply_rule(overlapping, RuleApp("MixPerm2-fwd", ()))
    assert apply_rule(overlapping, RuleApp("AsscD2", ())) == WrapT(1, B, WrapT(1, E, A))


def test_apply_rule_at_path_and_param_mismatch():
    t = Cat(Cat(ConstI(), A), C)
    got = apply_rule(t, RuleApp("UnitI-L-drop", (0,)))
    assert got == Cat(A, C)
    with pytest.raises(RuleError):
        apply_rule(B, RuleApp("UnitJ-i-add", (), (("i", 9),)))


def test_a_step_rejects_a_parameter_its_rule_does_not_take():
    # a step's given indices are the ones its redex fills (UnitJ-i-add
    # fills i); the first other key is named by apply_rule, is_step and
    # trace_from_obj, even when the step fits and its other indices match
    t = parse_term("((a + a) + a)", SIG)
    w = WrapT(1, B, WrapT(1, E, A))
    for start, fitting, extra, key in (
        (t, RuleApp("AsscC-fwd"), (("i", 5), ("zz", 1)), "i"),
        (t, RuleApp("AsscC-fwd"), (("zz", 1),), "zz"),
        (B, RuleApp("UnitJ-i-add", (), (("i", 2),)), (("j", 1),), "j"),
        (w, RuleApp("AsscD1", (), (("i", 1), ("j", 1))), (("k", 1),), "k"),
    ):
        app = RuleApp(fitting.rule, fitting.at, fitting.params + extra)
        u = apply_rule(start, fitting)
        assert is_step(start, fitting, u)
        error = "^%s at \\(\\): the step takes no parameter %s$" % (app.rule, key)
        with pytest.raises(RuleError, match=error):
            apply_rule(start, app)
        with pytest.raises(RuleError, match=error):
            is_step(start, app, u)
        obj = trace_to_obj(RewriteTrace(start, (TraceStep(fitting, u),)))
        assert trace_from_obj(obj, SIG) == RewriteTrace(start, (TraceStep(fitting, u),))
        obj["steps"][0]["params"] = dict(app.params)
        with pytest.raises(RuleError, match=error):
            trace_from_obj(obj, SIG)


def test_apply_rule_rejects_non_integer_indices():
    for t, app in (
        (B, RuleApp("UnitJ-i-add", (), (("i", "2"),))),
        (WrapT(2, B, ConstJ()), RuleApp("UnitJ-i-drop", (), (("i", "1"),))),
        (WrapT(1, B, WrapT(1, E, A)), RuleApp("AsscD1", (), (("i", 1), ("j", 1.0)))),
    ):
        with pytest.raises(RuleError, match="is not an integer"):
            apply_rule(t, app)


# the redexes of the rule tests above, and a few leaves
RULE_EXAMPLES = (
    A,
    E,
    B,
    Cat(Cat(ConstI(), A), C),
    Cat(Cat(A, C), E),
    Cat(E, A),
    WrapT(2, B, WrapT(1, E, A)),
    WrapT(1, WrapT(1, B, A), E),
    WrapT(1, WrapT(2, B, A), E),
    WrapT(1, WrapT(1, B, E), A),
    WrapT(1, Cat(ConstJ(), A), C),
)


def test_rule_first_dispatch_agrees_with_the_tuple_match():
    # _apply picks its rule by name before it matches; parent_apply matched
    # (rule, subterm) pairs.  Both give the same reduct and filled indices,
    # or None in both: every rule with i from None and 0 to one past the
    # sort at every distinct subterm of 1,000 random terms, and at every
    # term of criterion 3's universe (closed under subterms) every rule
    # with i None, and UnitJ-i-add, the one rule that reads i, with each i
    # (all i at every universe term would take 8 s)
    rng = random.Random(41)
    randoms = set()
    for _ in range(1000):
        randoms.update(sub for _, sub in iter_subterms(random_term(rng, ATOMS, 5)))
    universe = enumerate_terms((A, E, B, ConstI(), ConstJ()), 4)
    cases = [
        (sub, rule, i)
        for sub in randoms
        for i in (None, *range(sub.sort + 2))
        for rule in RULE_NAMES
    ]
    cases += [(sub, rule, None) for sub in universe for rule in RULE_NAMES]
    cases += [(sub, "UnitJ-i-add", i) for sub in universe for i in range(sub.sort + 2)]
    fits = Counter()
    for sub, rule, i in cases:
        got = _apply(sub, rule, i)
        assert got == parent_apply(sub, rule, i), (sub, rule, i)
        fits[rule] += got is not None
    assert set(fits) == set(RULE_NAMES) and all(fits.values()), fits


def test_enumeration_equals_its_definition():
    rng = random.Random(23)
    found = set()
    for t in RULE_EXAMPLES + tuple(random_term(rng, ATOMS, 4) for _ in range(150)):
        apps = enumerate_rule_apps(t)
        assert apps == reference_rule_apps(t), t
        found.update(app.rule for app in apps)
    assert found == set(RULE_NAMES)


def test_enumeration_and_size_on_a_long_cons_list():
    # the canonical term of 1,500 flat items is a cons list 1,500 Cats deep;
    # iter_subterms and term_size walk it with their own stacks
    t = term_of_config(HyperConfig((Leaf0(Atom("a", 0)),) * 1500))
    assert term_size(t) == 3001
    paths = [path for path, _ in iter_subterms(t)]
    assert paths[:5] == [(), (0,), (1,), (1, 0), (1, 1)] and paths[-1] == (1,) * 1500
    apps = enumerate_rule_apps(t)
    # three unit insertions at every subterm, both split-wraps at every Cat,
    # AsscC-bwd at every Cat but the last and UnitI-R-drop at the last
    assert len(apps) == 3 * 3001 + 2 * 1500 + 1499 + 1
    assert apps[-1] == rule_app("UnitJ-L-add", (1,) * 1500)
    assert flatten(sharp(apply_rule(t, apps[-2]))) == flatten(sharp(t))


def test_enumerated_apps_apply_and_invert():
    rng = random.Random(5)
    exercised = set()
    for t in RULE_EXAMPLES + tuple(random_term(rng, ATOMS, 4) for _ in range(60)):
        for app in enumerate_rule_apps(t):
            tr = Tracer(t)
            tr.emit(app.rule, app.at, **app.params_dict())
            s = tr.term
            assert s == apply_rule(t, app)
            assert flatten(sharp(s)) == flatten(sharp(t))
            filled = tr.steps[0].app.params_dict()
            tr.emit(INVERSE_RULE[app.rule], app.at, **filled)
            assert tr.term == t, app
            exercised.add(app.rule)
    assert exercised == set(RULE_NAMES)


def test_each_rule_and_its_inverse_fill_indices_together():
    # invert_trace takes an inverse step's indices from _apply of the
    # inverse rule on the forward reduct, and runs it only when the forward
    # redex filled indices: the inverse gives back the redex, and fills
    # indices exactly when the forward step did
    rng = random.Random(5)
    for t in RULE_EXAMPLES + tuple(random_term(rng, ATOMS, 4) for _ in range(60)):
        for app in enumerate_rule_apps(t):
            redex = subterm_at(t, app.at)
            reduct, filled = _apply(redex, app.rule, app.params_dict().get("i"))
            back, back_filled = _apply(reduct, INVERSE_RULE[app.rule], filled.get("i"))
            assert back == redex, app
            assert bool(back_filled) == bool(filled), app


def _outcome(call):
    """call()'s value, or the type and text of the IndexError or RuleError it
    raises."""
    try:
        return call()
    except (IndexError, RuleError) as exc:
        return type(exc), str(exc)


def test_is_step_agrees_with_apply_rule():
    # is_step(t, app, u) is defined as apply_rule(t, app) == u, a raise
    # counted as a raise.  Every app of criterion 2's canonical terms and of
    # 500 random terms is checked against: its own result; the results of
    # the other apps (all of them on terms with at most 30 apps, three drawn
    # by rng on larger ones, which keeps this test to seconds); its result
    # with one off-path sibling s swapped for (s + II), a different term of
    # the same sort, and with one spine wrap index changed, each at a level
    # drawn by rng; and
    # the app with a wrong, a Boolean or a missing i, or a path one step too
    # long
    rng = random.Random(202)
    terms = [term_of_config(random_config(rng, ATOMS, budget=12, nesting=3)) for _ in range(1000)]
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    rng = random.Random(18)
    terms += [random_term(rng, atoms, rng.randint(1, 6)) for _ in range(500)]
    seen = Counter()
    for t in terms:
        apps = enumerate_rule_apps(t)
        results = [apply_rule(t, app) for app in apps]
        for app, u in zip(apps, results):
            # (app, candidate result, reference: apply_rule(t, app) == it)
            others = results if len(apps) <= 30 else rng.sample(results, 3)
            cases = [(app, r, u == r) for r in others + [u]]
            if app.at:
                level = rng.randrange(len(app.at))
                sibling = app.at[:level] + (1 - app.at[level],)
                v = replace_at(u, sibling, Cat(subterm_at(u, sibling), ConstI()))
                cases.append((app, v, u == v))
                wraps, node = [], u
                for k, d in enumerate(app.at):
                    if type(node) is WrapT and node.left.sort >= 2:
                        wraps.append((app.at[:k], node))
                    node = node.left if d == 0 else node.right
                if wraps:
                    p, wrap = rng.choice(wraps)
                    i = rng.choice([k for k in range(1, wrap.left.sort + 1) if k != wrap.i])
                    v = replace_at(u, p, WrapT(i, wrap.left, wrap.right))
                    cases.append((app, v, u == v))
            ps = app.params_dict()
            variants = [dict(ps, i=ps.get("i", 0) + 1), dict(ps, i=True)]
            if "i" in ps:
                variants.append({key: val for key, val in ps.items() if key != "i"})
            for params in variants:
                bad = RuleApp(app.rule, app.at, tuple(sorted(params.items())))
                cases.append((bad, u, _outcome(lambda: apply_rule(t, bad) == u)))
            bad = RuleApp(app.rule, app.at + (2,), app.params)
            cases.append((bad, u, _outcome(lambda: apply_rule(t, bad) == u)))
            for a, v, want in cases:
                assert _outcome(lambda: is_step(t, a, v)) == want, (t, a, v)
                seen[want if type(want) is bool else want[0]] += 1
    assert set(seen) == {True, False, IndexError, RuleError}, seen


# ---------------------------------------------------------------------------
# normalisation and traces


def test_normalize_reaches_canonical_form():
    t = WrapT(1, Cat(ConstJ(), A), C)
    tr = normalize(t)
    assert tr.start == t
    end = run(tr)
    assert end == term_of_config(sharp(t))


def test_is_canonical_agrees_with_the_reference_definition():
    universe = enumerate_terms((A, E, B, ConstI(), ConstJ()), 4)
    assert len(universe) == 29535
    for t in universe:
        assert is_canonical(t) == reference_is_canonical(t), t
    rng = random.Random(105)
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    canonical = 0
    for _ in range(2000):
        t = random_term(rng, atoms, rng.randint(1, 6))
        for root in (t, term_of_config(sharp(t))):
            for _, sub in iter_subterms(root):
                want = reference_is_canonical(sub)
                assert is_canonical(sub) == want, sub
                canonical += want
    assert canonical > 2000


def test_normalize_equals_the_parent_copy():
    # the parent's five mutually recursive helpers are now one task loop:
    # same steps, same results, on random terms, every subterm of them, and
    # wrap chains ((b +1 e) +1 e)... that push fillers down gap after gap
    rng = random.Random(11)
    terms = [WrapT(1, Cat(ConstJ(), A), C)] + [random_term(rng, ATOMS, 4) for _ in range(40)]
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    rng = random.Random(19)
    terms += [random_term(rng, atoms, rng.randint(1, 6)) for _ in range(100)]
    terms += [sub for t in terms for path, sub in iter_subterms(t) if path]
    chain = B
    for k in range(20):
        chain = WrapT(1, chain, E)
        terms.append(chain)
        if k % 5 == 0:
            terms.append(WrapT(1 + k % 2, Cat(C, chain), Cat(E, A)))
    steps = 0
    for t in terms:
        trace = normalize(t)
        assert trace == parent_normalize(t), t
        steps += len(trace)
    assert steps > 20000, steps


def test_normalize_deep_terms():
    # the parent recursed once per level: a Cat of 332 leaves nested either
    # way raised RecursionError under the default recursion limit
    left = right = A
    for _ in range(1999):
        left = Cat(left, A)
    for _ in range(1499):
        right = Cat(A, right)
    for t, leaves in ((left, 2000), (right, 1500)):
        end = normalize(t).end()
        assert is_canonical(end) and flatten(sharp(end)) == (Leaf0(Atom("a", 0)),) * leaves


def test_normalize_budget():
    t = Cat(Cat(A, C), Cat(A, C))
    with pytest.raises(BudgetError):
        normalize(t, budget=1)


def test_invert_trace_replays_backwards():
    rng = random.Random(11)
    for _ in range(40):
        t = random_term(rng, ATOMS, 4)
        tr = normalize(t)
        back = invert_trace(tr)
        assert back.start == run(tr)
        assert run(back) == t


def test_invert_trace_equals_the_parent_copy():
    # the parent re-applied every inverse step; now each is checked in place
    # on the term the forward trace holds.  Traces: the extract trace of a
    # random extractable leaf of each of criterion 2's canonical terms, and
    # normalize's trace back from its end; normalize and extract of random
    # terms
    rng = random.Random(202)
    terms = [term_of_config(random_config(rng, ATOMS, budget=12, nesting=3)) for _ in range(1000)]
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    rng = random.Random(19)
    terms += [random_term(rng, atoms, rng.randint(1, 6)) for _ in range(500)]
    steps = 0
    for t in terms:
        traces = [normalize(t)]
        leaves = [p for p, sub in iter_subterms(t) if type(sub) is Leaf and extractable(t, p)]
        if leaves:
            trace = extract(t, rng.choice(leaves), rng)[2]
            traces += [trace, normalize(trace.end())]
        for trace in traces:
            back = invert_trace(trace)
            assert back == parent_invert_trace(trace), trace
            assert back.validate() and back.end() == trace.start
            steps += len(back)
    assert steps > 10000, steps


def test_validate_is_false_on_ill_formed_traces():
    # each step raised out of validate: a rule that does not fit, a path
    # below a leaf, and a Boolean index
    t = parse_term("((a + a) + a)", SIG)
    good = TraceStep(RuleApp("AsscC-fwd", ()), apply_rule(t, RuleApp("AsscC-fwd", ())))
    assert RewriteTrace(t, (good,)).validate()
    for app, error in (
        (RuleApp("UnitI-L-drop", ()), "UnitI-L-drop does not fit the subterm at \\(\\)"),
        (RuleApp("AsscC-fwd", (0, 0, 0)), "path descends below a leaf"),
        (RuleApp("AsscC-fwd", (), (("i", True),)), "is not an integer"),
    ):
        with pytest.raises((IndexError, RuleError), match=error):
            apply_rule(t, app)
        assert RewriteTrace(t, (TraceStep(app, good.result),)).validate() is False
        assert RewriteTrace(t, (good, TraceStep(app, t))).validate() is False


def test_invert_trace_rejects_a_step_that_is_not_its_rewrite():
    # the inverse of the first does not fit; that of the second fits but
    # misses the start, which only an assert caught before
    t = parse_term("((a + a) + a)", SIG)
    u = parse_term("(a + (a + a))", SIG)
    for bad in (TraceStep(RuleApp("AsscC-fwd", ()), t), TraceStep(RuleApp("UnitI-L-add", ()), Cat(ConstI(), u))):
        assert not RewriteTrace(t, (bad,)).validate()
        with pytest.raises(RuleError):
            invert_trace(RewriteTrace(t, (bad,)))


def test_invert_trace_rejects_the_steps_validate_rejects():
    # each of these one-step traces has validate() False, yet the parent
    # inverted it into a trace that validates: it read only i from the
    # forward step and took the inverse's indices from the redex.  Now
    # each raises what apply_rule raises on the step, or, where apply_rule
    # gives another term (b +2 JJ), that the step does not give its result
    t = parse_term("((a + a) + a)", SIG)
    u = apply_rule(t, RuleApp("AsscC-fwd"))
    bj = parse_term("(b +1 JJ)", SIG)
    cases = [(t, RuleApp("AsscC-fwd", (), ps), u) for ps in ((("zz", 1),), (("i", 1.0),), (("i", 1),))]
    cases.append((B, RuleApp("UnitJ-i-add"), bj))
    for start, app, result in cases:
        with pytest.raises(RuleError) as raised:
            apply_rule(start, app)
        trace = RewriteTrace(start, (TraceStep(app, result),))
        assert not trace.validate()
        with pytest.raises(RuleError, match="^%s$" % re.escape(str(raised.value))):
            invert_trace(trace)
    app = RuleApp("UnitJ-i-add", (), (("i", 2),))
    assert apply_rule(B, app) == parse_term("(b +2 JJ)", SIG)
    trace = RewriteTrace(B, (TraceStep(app, bj),))
    assert not trace.validate()
    with pytest.raises(RuleError, match=r"^trace step 1, UnitJ-i-add@root \[i=2\], does not give its result$"):
        invert_trace(trace)


def _mutated_steps(before, step):
    """step with a stray key, with each index moved by -1 or +1, made True
    or 1.0, or dropped, and with `before` as its result."""
    app, ps = step.app, step.app.params
    apps = [ps + (("zz", 1),)]
    for n, (key, val) in enumerate(ps):
        apps += [ps[:n] + ((key, new),) + ps[n + 1:] for new in (val - 1, val + 1, True, 1.0)]
        apps.append(ps[:n] + ps[n + 1:])
    out = [TraceStep(RuleApp(app.rule, app.at, params), step.result) for params in apps]
    return out + [TraceStep(app, before)]


def test_invert_trace_raises_exactly_when_validate_is_false():
    # every step of the normalize and extract traces of 200 random terms,
    # each mutation of it (_mutated_steps) as a one-step trace, and one
    # mutation at a random step of each whole trace: invert_trace raises
    # RuleError when validate() is False, and otherwise gives the inverse
    # of the unmutated step (dropping an index its redex fills changes
    # nothing)
    rng = random.Random(31)
    atoms = (("a", 0), ("e", 1), ("b", 2), ("f", 3))
    seen = Counter()
    for _ in range(200):
        t = random_term(rng, atoms, rng.randint(1, 5))
        traces = [normalize(t)]
        leaves = [p for p, sub in iter_subterms(t) if type(sub) is Leaf and extractable(t, p)]
        if leaves:
            traces.append(extract(t, rng.choice(leaves), rng)[2])
        for trace in traces:
            back = invert_trace(trace)
            n = len(trace.steps)
            befores = (trace.start,) + tuple(step.result for step in trace.steps)
            for k, step in enumerate(trace.steps):
                want = RewriteTrace(step.result, (back.steps[n - 1 - k],))
                for bad in _mutated_steps(befores[k], step):
                    one = RewriteTrace(befores[k], (bad,))
                    if one.validate():
                        assert invert_trace(one) == want, bad
                        seen["kept"] += 1
                    else:
                        with pytest.raises(RuleError):
                            invert_trace(one)
                        seen["raised"] += 1
            if n:
                k = rng.randrange(n)
                bad = rng.choice(_mutated_steps(befores[k], trace.steps[k]))
                whole = RewriteTrace(trace.start, trace.steps[:k] + (bad,) + trace.steps[k + 1:])
                if whole.validate():
                    assert invert_trace(whole) == back
                else:
                    with pytest.raises(RuleError):
                        invert_trace(whole)
    assert seen["kept"] > 1000 and seen["raised"] > 10000, seen


def test_trace_from_obj_and_invert_trace_name_a_step_that_misses_its_result():
    # both find the same fault, a forward step that does not give its
    # result, and say so in one text naming the step and its app
    tr = Tracer(parse_term("((a + a) + a)", SIG))
    tr.emit("AsscC-fwd")
    tr.emit("UnitI-L-add", (1,))
    trace = tr.trace()
    wrong = RewriteTrace(trace.start, (trace.steps[0], TraceStep(trace.steps[1].app, trace.start)))
    error = r"^trace step 2, UnitI-L-add@R, does not give its result$"
    with pytest.raises(RuleError, match=error):
        invert_trace(wrong)
    with pytest.raises(RuleError, match=error):
        trace_from_obj(trace_to_obj(wrong), SIG)


def test_trace_from_obj_rejects_path_steps_that_are_not_ints():
    # [0, true], [0.0, 1.0] and [false, 1] all == [0, 1], which _descend
    # would follow; check_m rejects such a path, and so does trace_from_obj
    tr = Tracer(parse_term("((a + (II + a)) + a)", SIG))
    tr.emit("UnitI-R-add", (1,))
    tr.emit("UnitI-L-drop", (0, 1))
    tr.emit("AsscC-fwd")
    obj = trace_to_obj(tr.trace())
    assert trace_from_obj(obj, SIG) == tr.trace()
    for bad in ([0, True], [0.0, 1.0], [False, 1]):
        obj["steps"][1]["path"] = bad
        with pytest.raises(RuleError, match=r"^trace step 2: path .* is not a list of integers$"):
            trace_from_obj(obj, SIG)


def test_trace_serialization_round_trip():
    tr = normalize(WrapT(1, Cat(ConstJ(), A), C))
    obj = trace_to_obj(tr)
    assert trace_from_obj(obj, SIG) == tr
    text = json.dumps(obj, indent=2, sort_keys=True)
    assert json.loads(text) == obj


def test_trace_from_obj_fills_indices_and_rejects_wrong_ones():
    tr = Tracer(WrapT(1, B, WrapT(1, E, A)))
    tr.emit("AsscD1")
    obj = trace_to_obj(tr.trace())
    assert obj["steps"][0]["params"] == {"i": 1, "j": 1}
    del obj["steps"][0]["params"]
    assert trace_from_obj(obj, SIG) == tr.trace()
    obj["steps"][0]["params"] = {"i": 1, "j": 2}
    with pytest.raises(RuleError, match="does not match the redex"):
        trace_from_obj(obj, SIG)


def test_trace_from_obj_rejects_non_integer_indices():
    tr = Tracer(B)
    tr.emit("UnitJ-i-add", (), i=1)
    obj = trace_to_obj(tr.trace())
    assert obj["steps"][0]["params"] == {"i": 1}
    assert trace_from_obj(obj, SIG) == tr.trace()
    for bad in ("1", 1.0, True):
        obj["steps"][0]["params"]["i"] = bad
        with pytest.raises(RuleError, match="is not an integer"):
            trace_from_obj(obj, SIG)


def test_trace_from_obj_names_a_field_of_the_wrong_json_shape():
    # these raised AttributeError, TypeError and KeyError
    tr = Tracer(B)
    tr.emit("UnitJ-i-add", (), i=1)
    good = trace_to_obj(tr.trace())
    assert trace_from_obj(good, SIG) == tr.trace()
    for change, error in (
        (lambda obj: obj["steps"][0].update(params=[1]), "trace step 1: params must be a JSON object"),
        (lambda obj: obj["steps"][0].update(path=5), "trace step 1: path must be a JSON list"),
        (lambda obj: obj["steps"][0].pop("result"), "trace step 1: result must be a JSON string"),
        (lambda obj: obj["steps"][0].pop("rule"), "trace step 1: rule must be a JSON string"),
        (lambda obj: obj["steps"].__setitem__(0, "UnitJ-i-add"), "trace step 1 must be a JSON object"),
        (lambda obj: obj.update(steps={"0": obj["steps"][0]}), "steps must be a JSON list"),
        (lambda obj: obj.update(start=["b"]), "start must be a JSON string"),
        (lambda obj: obj.pop("start"), "start must be a JSON string"),
    ):
        obj = json.loads(json.dumps(good))
        change(obj)
        with pytest.raises(ParseError) as info:
            trace_from_obj(obj, SIG)
        assert str(info.value) == error
    with pytest.raises(ParseError, match="^a trace must be a JSON object$"):
        trace_from_obj([good], SIG)


# ---------------------------------------------------------------------------
# equivalence


def test_equiv_examples():
    assert equiv(Cat(ConstI(), A), A)
    assert equiv(WrapT(1, ConstJ(), A), A)
    assert equiv(Cat(Cat(A, C), E), Cat(A, Cat(C, E)))
    assert not equiv(A, C)
    assert not equiv(Cat(A, C), Cat(C, A))


def test_bounded_oracle_small_cases():
    assert bounded_equiv_oracle(Cat(ConstI(), A), A, depth=2)
    assert bounded_equiv_oracle(A, Cat(ConstI(), A), depth=2)
    assert not bounded_equiv_oracle(A, C, depth=3, max_expansions=2000)
    # one step is not enough to both add and drop a unit
    assert not bounded_equiv_oracle(Cat(ConstI(), A), Cat(A, ConstI()), depth=1)


def test_library_calls_keep_no_argument_alive():
    t = parse_term("((a + II) + (e +1 (c + II)))", SIG)
    cfg = parse_config("a,0:e,c,1:e", SIG)
    # a type stores its figure and segment tokens, which refer back to it:
    # only the cycle collector frees them, and nothing else may hold them
    wide, narrow = Prod(Atom("e", 1), Atom("b", 2)), Prod(Atom("a", 0), Atom("c", 0))
    refs = tuple(
        weakref.ref(x) for x in (t, cfg, t.left.left.type, cfg.items[1].type, wide, narrow)
    )
    normalize(t)
    sharp(t)
    sort_of_term(t)
    term_of_config(cfg)
    sort_of_config(cfg)
    flatten(cfg)
    flatten(figure(wide))
    figure_items(narrow, ())
    bounded_equiv_oracle(t, term_of_config(cfg), depth=2)
    del t, cfg, wide, narrow
    gc.collect()
    assert [r() for r in refs] == [None] * 6
    # an image that sharp stores on a subterm holds items, never a term: with
    # the cycle collector off, reference counting alone frees a term and every
    # subterm of it after sharp, normalize and extract
    t = parse_term("((a + (c + II)) + ((e +1 (c + a)) + (b +2 (a + c))))", SIG)
    refs = [weakref.ref(sub) for _, sub in iter_subterms(t)]
    gc.disable()
    try:
        sharp(t)
        sharp(apply_rule(t, rule_app("AsscC-bwd")))
        normalize(t)
        extract(t, (1, 0, 1, 0))
        assert sum(getattr(r(), "_image", None) is not None for r in refs) == 6
        del t
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# extraction


def test_extract_identity_case():
    t = WrapT(1, E, A)
    rest, i, tr = extract(t, (1,))
    assert rest == E and i == 1 and tr.steps == ()


def test_extract_through_rewrites():
    t = Cat(A, WrapT(1, E, C))
    rest, i, tr = extract(t, (1, 1))
    assert tr.start == t
    end = run(tr)
    assert end == WrapT(i, rest, C)
    assert flatten(sharp(end)) == flatten(sharp(t))


def test_extractable_matches_extract():
    t = Cat(A, WrapT(1, E, C))
    assert extractable(t, (1, 1)) == 1
    assert extractable(t, (1, 0)) is None
    with pytest.raises(ExtractionError):
        extract(t, (1, 0))


def test_uniqueness_check_on_extractable_pair():
    t = Cat(A, WrapT(1, E, C))
    assert uniqueness_check(t, (1, 1), trials=5, seed=3)


# A wrap that fills a gap of the leaf's own occurrence with more than a bare
# separator stops _pull (_Degenerate); extraction then normalizes the whole
# term and pulls the leaf of the same item out of the canonical term.  The
# sort-1 term below reaches that route at its leaf e (path 0,0), and so does
# every random term with it planted at a sort-1 leaf.  sha256 of each such
# extraction's term, path, slot, rest and trace.
FALLBACK_PLANT = "((e +1 (JJ + JJ)) +1 II)"
FALLBACK_DIGEST = "fb3620bde2704fadb4f1bd0dd0bcb8d0f168afdabb0fc8fa99b9df596365e19e"


def test_extraction_fallback_route_is_pinned(monkeypatch):
    fallbacks = []

    class Spy(Exception):
        def __init__(self):
            fallbacks.append(1)

    monkeypatch.setattr("dcalc.terms._Degenerate", Spy)
    plant = parse_term(FALLBACK_PLANT, SIG)
    rest, i, trace = extract(plant, (0, 0))
    assert (str(rest), i, len(trace)) == ("(JJ + II)", 1, 24) and len(fallbacks) == 1
    rng = random.Random(5)
    cases = [(plant, (0, 0))]
    for _ in range(120):
        t = random_term(rng, ATOMS, 4)
        for path, sub in iter_subterms(t):
            if type(sub) is Leaf and sub.sort == 1:
                u = replace_at(t, path, plant)
                if extractable(u, path + (0, 0)) is not None:
                    cases.append((u, path + (0, 0)))
    assert len(cases) == 68
    h = hashlib.sha256()
    for t, at in cases:
        fallbacks.clear()
        rest, i, trace = extract(t, at)
        assert len(fallbacks) == 1, (str(t), at)
        assert trace.validate() and uniqueness_check(t, at)
        h.update(json.dumps([str(t), at, i, str(rest), trace_to_obj(trace)]).encode())
    assert h.hexdigest() == FALLBACK_DIGEST
