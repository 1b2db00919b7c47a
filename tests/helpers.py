"""Random generators and the forward derivation builder used by the tests."""

import re
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from dcalc.derivation import latex_escape, params_to_obj
from dcalc.hseq import (
    HDerivation,
    HSequent,
    InstanceError,
    _item_gaps,
    _seq_key,
    apply_chunks,
    enumerate_rule_instances,
)
from dcalc.mseq import structural_step
from dcalc.syntax import (
    EMPTY,
    SEP,
    Atom,
    SegTok,
    DDown,
    DProd,
    DUp,
    HyperConfig,
    Leaf0,
    Occurrence,
    Over,
    ParseError,
    Prod,
    Separator,
    Signature,
    SortError,
    Type,
    Under,
    UnitI,
    UnitJ,
    _parse_type_expr,
    config_at,
    config_str,
    figure,
    figure_items,
    flatten,
    generalized_wrap,
    item_at,
    iter_items,
    parse_flat,
    replace_range,
    sep_index_at,
    sort_of_config,
    sort_of_type,
    splice_item,
    sub_slice,
    wrap_at,
)
from dcalc.terms import (
    INVERSE_RULE,
    RULE_NAMES,
    Cat,
    ConstI,
    ConstJ,
    Leaf,
    RuleApp,
    RuleError,
    Tracer,
    WrapT,
    _pad_leaf_gaps,
    _parse_term,
    apply_rule,
    classify,
    is_canonical,
    iter_subterms,
    sharp,
    sort_of_term,
    term_of_config,
)

# ---------------------------------------------------------------------------
# random objects


def random_type(rng, atoms, depth):
    """A well-sorted random type over `atoms` (list of (name, sort) pairs)."""
    if depth <= 0 or rng.random() < 0.35:
        name, sort = rng.choice(atoms)
        return Atom(name, sort)
    for _ in range(8):
        kind = rng.choice(("prod", "under", "over", "dprod", "ddown", "dup", "unit"))
        try:
            if kind == "unit":
                return rng.choice((UnitI(), UnitJ()))
            a = random_type(rng, atoms, depth - 1)
            b = random_type(rng, atoms, depth - 1)
            if kind == "prod":
                return Prod(a, b)
            if kind == "under":
                return Under(a, b)
            if kind == "over":
                return Over(a, b)
            if kind == "dprod":
                return DProd(rng.randint(1, max(1, sort_of_type(a))), a, b)
            if kind == "ddown":
                return DDown(rng.randint(1, max(1, sort_of_type(a))), a, b)
            k_hi = max(1, sort_of_type(a) + 1 - sort_of_type(b))
            return DUp(rng.randint(1, k_hi), a, b)
        except SortError:
            continue
    name, sort = rng.choice(atoms)
    return Atom(name, sort)


def random_term(rng, atoms, depth):
    """A well-sorted random structural term with atomic leaf types."""
    if depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.15:
            return ConstI()
        if r < 0.3:
            return ConstJ()
        name, sort = rng.choice(atoms)
        return Leaf(Atom(name, sort))
    left = random_term(rng, atoms, depth - 1)
    right = random_term(rng, atoms, depth - 1)
    if sort_of_term(left) == 0 or rng.random() < 0.5:
        return Cat(left, right)
    return WrapT(rng.randint(1, sort_of_term(left)), left, right)


def random_config(rng, atoms, budget=12, nesting=3):
    """A random hyperconfiguration with at most `budget` items in total."""
    cell = [budget]
    return _rand_cfg(rng, atoms, cell, nesting)


def _rand_cfg(rng, atoms, cell, nesting):
    sort0 = [a for a in atoms if a[1] == 0]
    high = [a for a in atoms if a[1] >= 1]
    items = []
    while cell[0] > 0 and len(items) < 5 and rng.random() < 0.72:
        cell[0] -= 1
        r = rng.random()
        if r < 0.3:
            items.append(SEP)
        elif r < 0.7 or nesting <= 0 or not high:
            name, sort = rng.choice(sort0)
            items.append(Leaf0(Atom(name, sort)))
        else:
            name, sort = rng.choice(high)
            gaps = tuple(
                _rand_cfg(rng, atoms, cell, nesting - 1) for _ in range(sort)
            )
            items.append(Occurrence(Atom(name, sort), gaps))
    return HyperConfig(tuple(items))


def enumerate_terms(leaves, max_leaves):
    """Every term with at most max_leaves leaves from `leaves`, by leaf count."""
    by_n = {1: list(leaves)}
    for n in range(2, max_leaves + 1):
        acc = []
        for i in range(1, n):
            for lt in by_n[i]:
                sl = sort_of_term(lt)
                for rt in by_n[n - i]:
                    acc.append(Cat(lt, rt))
                    for k in range(1, sl + 1):
                        acc.append(WrapT(k, lt, rt))
        by_n[n] = acc
    out = []
    for n in range(1, max_leaves + 1):
        out.extend(by_n[n])
    return out


# ---------------------------------------------------------------------------
# reference sharp
#
# The plain recursive definitions that dcalc's iterative sharp, wrap_at,
# flatten and parse_flat replaced, kept as the oracle they are checked
# against: this wrap_at checks the index first and rebuilds the whole image.


def reference_flatten(cfg):
    out = []
    for item in cfg.items:
        if isinstance(item, Occurrence):
            out.append(SegTok(item.type, 0))
            for i, gap in enumerate(item.gaps, 1):
                out.extend(reference_flatten(gap))
                out.append(SegTok(item.type, i))
        else:
            out.append(item)
    return tuple(out)


def reference_parse_flat(tokens):
    # the parse_flat that recursed once per level of gap nesting, copied
    # verbatim; the explicit-stack one must raise what this one raises
    items, _ = _reference_reassemble(tuple(tokens), 0, None)
    return HyperConfig(tuple(items))


def _reference_reassemble(tokens, pos, stop):
    items = []
    while pos < len(tokens):
        tok = tokens[pos]
        if isinstance(tok, SegTok):
            if stop is not None and tok.type == stop[0] and tok.idx == stop[1]:
                return items, pos
            if tok.idx != 0:
                raise ParseError("segment %s out of order" % tok)
            a = sort_of_type(tok.type)
            gaps = []
            pos += 1
            for g in range(1, a + 1):
                sub, pos = _reference_reassemble(tokens, pos, (tok.type, g))  # stops at segment g
                gaps.append(HyperConfig(tuple(sub)))
                pos += 1
            items.append(Occurrence(tok.type, tuple(gaps)))
        elif isinstance(tok, (Leaf0, Separator)):
            items.append(tok)
            pos += 1
        else:
            raise ParseError("bad flat token %r" % (tok,))
    if stop is not None:
        raise ParseError("missing segment %d:%s" % (stop[1], stop[0]))
    return items, pos


def reference_wrap_at(cfg, k, filler):
    total = sort_of_config(cfg)
    if not 1 <= k <= total:
        raise SortError("wrap index %d out of range 1..%d" % (k, total))
    count = [0]

    def walk(items):
        out = []
        for item in items:
            if isinstance(item, Separator):
                count[0] += 1
                if count[0] == k:
                    out.extend(filler.items)
                else:
                    out.append(item)
            elif isinstance(item, Occurrence):
                out.append(
                    Occurrence(item.type, tuple(HyperConfig(tuple(walk(g.items))) for g in item.gaps))
                )
            else:
                out.append(item)
        return out

    return HyperConfig(tuple(walk(cfg.items)))


def reference_sharp(t):
    if isinstance(t, ConstI):
        return EMPTY
    if isinstance(t, ConstJ):
        return HyperConfig((SEP,))
    if isinstance(t, Leaf):
        return figure(t.type)
    if isinstance(t, Cat):
        return HyperConfig(reference_sharp(t.left).items + reference_sharp(t.right).items)
    if isinstance(t, WrapT):
        return reference_wrap_at(reference_sharp(t.left), t.i, reference_sharp(t.right))
    raise TypeError("not a structural term: %r" % (t,))


# The explicit-stack sharp before each term node could store its image,
# copied verbatim: it walks every node of the term on every call.

_PARENT_JOIN = object()


def parent_sharp(t):
    images = []  # item tuples of the subterms finished so far
    todo = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if node is _PARENT_JOIN:
            node = todo.pop()
            right = images.pop()
            left = images.pop()
            if type(node) is Cat:
                images.append(left + right)
            else:
                images.append(wrap_at(HyperConfig(left), node.i, HyperConfig(right)).items)
        elif cls is Cat or cls is WrapT:
            todo += (node, _PARENT_JOIN, node.right, node.left)
        elif cls is Leaf:
            images.append(figure(node.type).items)
        elif cls is ConstJ:
            images.append((SEP,))
        elif cls is ConstI:
            images.append(())
        else:
            raise TypeError("not a structural term: %r" % (node,))
    return HyperConfig(images[0])


# ---------------------------------------------------------------------------
# reference sorts
#
# The plain recursive definitions that the sorts stored in each type and
# term node replaced, kept as the oracle those are checked against.  Applied
# to an ill-sorted type built without its constructor, reference_sort_of_type
# raises the SortError text that the constructor must raise.


def reference_sort_of_type(t):
    if isinstance(t, Atom):
        return t.sort
    if isinstance(t, UnitI):
        return 0
    if isinstance(t, UnitJ):
        return 1
    if isinstance(t, Prod):
        return reference_sort_of_type(t.left) + reference_sort_of_type(t.right)
    if isinstance(t, Under):
        s = reference_sort_of_type(t.right) - reference_sort_of_type(t.left)
        if s < 0:
            raise SortError("negative sort in %s\\%s" % (t.left, t.right))
        return s
    if isinstance(t, Over):
        s = reference_sort_of_type(t.left) - reference_sort_of_type(t.right)
        if s < 0:
            raise SortError("negative sort in %s/%s" % (t.left, t.right))
        return s
    if isinstance(t, DProd):
        a = reference_sort_of_type(t.left)
        if a < 1:
            raise SortError("@%d on sort-0 left operand" % t.k)
        if not 1 <= t.k <= a:
            raise SortError("wrap index %d out of range 1..%d" % (t.k, a))
        return a + reference_sort_of_type(t.right) - 1
    if isinstance(t, DDown):
        a = reference_sort_of_type(t.left)
        if a < 1:
            raise SortError("!%d on sort-0 left operand" % t.k)
        if not 1 <= t.k <= a:
            raise SortError("wrap index %d out of range 1..%d" % (t.k, a))
        s = reference_sort_of_type(t.right) + 1 - a
        if s < 0:
            raise SortError("negative sort in %s" % (t,))
        return s
    if isinstance(t, DUp):
        s = reference_sort_of_type(t.left) + 1 - reference_sort_of_type(t.right)
        if s < 1:
            raise SortError("non-positive sort in %s" % (t,))
        if not 1 <= t.k <= s:
            raise SortError("wrap index %d out of range 1..%d" % (t.k, s))
        return s
    raise TypeError("not a type: %r" % (t,))


def reference_sort_of_term(t):
    cls = type(t)
    if cls is Leaf:
        return reference_sort_of_type(t.type)
    if cls is Cat:
        return reference_sort_of_term(t.left) + reference_sort_of_term(t.right)
    if cls is WrapT:
        return reference_sort_of_term(t.left) + reference_sort_of_term(t.right) - 1
    if cls is ConstI:
        return 0
    if cls is ConstJ:
        return 1
    raise TypeError("not a structural term: %r" % (t,))


# ---------------------------------------------------------------------------
# parent term nodes and rule dispatch
#
# Cat and WrapT as the plain dataclasses they were before their hand-written
# __init__, each checking its sorts in __post_init__ (their __qualname__ is
# the class they stand for, so that repr reads alike), and the _apply that
# matched (rule, subterm) pairs in one tuple match, copied verbatim.


def _parent_sort(t):
    if type(t) in (ParentCat, ParentWrapT):
        return t.sort
    return sort_of_term(t)


@dataclass(frozen=True)
class ParentCat:
    left: "StructTerm"
    right: "StructTerm"
    sort: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sort", _parent_sort(self.left) + _parent_sort(self.right))

    def __str__(self):
        return "(%s + %s)" % (self.left, self.right)


@dataclass(frozen=True)
class ParentWrapT:
    i: int
    left: "StructTerm"
    right: "StructTerm"
    sort: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = _parent_sort(self.left)
        if s < 1:
            raise SortError("wrap on a sort-0 term %s" % (self.left,))
        if not 1 <= self.i <= s:
            raise SortError("wrap index %d out of range 1..%d" % (self.i, s))
        object.__setattr__(self, "sort", s + _parent_sort(self.right) - 1)

    def __str__(self):
        return "(%s +%d %s)" % (self.left, self.i, self.right)


ParentCat.__qualname__, ParentWrapT.__qualname__ = "Cat", "WrapT"


def parent_nodes(t):
    """t rebuilt from ParentCat and ParentWrapT nodes, sharing its leaves."""
    if type(t) is Cat:
        return ParentCat(parent_nodes(t.left), parent_nodes(t.right))
    if type(t) is WrapT:
        return ParentWrapT(t.i, parent_nodes(t.left), parent_nodes(t.right))
    return t


def parent_apply(s, rule: str, i: Optional[int] = None):
    """Apply one rule at the root of s: (reduct, filled indices), or None when
    the rule does not fit.  Each case is the one statement of its rule.  `i`
    is UnitJ-i-add's index, the one index no redex holds; later cases rebind
    the name."""
    match rule, s:
        case "UnitI-L-add", _:
            return Cat(ConstI(), s), {}
        case "UnitI-L-drop", Cat(ConstI(), t):
            return t, {}
        case "UnitI-R-add", _:
            return Cat(s, ConstI()), {}
        case "UnitI-R-drop", Cat(t, ConstI()):
            return t, {}
        case "UnitJ-L-add", _:
            return WrapT(1, ConstJ(), s), {}
        case "UnitJ-L-drop", WrapT(1, ConstJ(), t):
            return t, {}
        case "UnitJ-i-add", _ if i is not None and 1 <= i <= sort_of_term(s):
            return WrapT(i, s, ConstJ()), {"i": i}
        case "UnitJ-i-drop", WrapT(k, t, ConstJ()):
            return t, {"i": k}
        case "AsscC-fwd", Cat(Cat(t1, t2), t3):
            return Cat(t1, Cat(t2, t3)), {}
        case "AsscC-bwd", Cat(t1, Cat(t2, t3)):
            return Cat(Cat(t1, t2), t3), {}
        case "SW-left-fwd", Cat(t1, t2):
            return WrapT(1, Cat(ConstJ(), t2), t1), {}
        case "SW-left-bwd", WrapT(1, Cat(ConstJ(), t2), t1):
            return Cat(t1, t2), {}
        case "SW-right-fwd", Cat(t1, t2):
            k = sort_of_term(t1) + 1
            return WrapT(k, Cat(t1, ConstJ()), t2), {"i": k}
        case "SW-right-bwd", WrapT(k, Cat(t1, ConstJ()), t2) if k == sort_of_term(t1) + 1:
            return Cat(t1, t2), {"i": k}
        case "AsscD1", WrapT(i, t1, WrapT(j, t2, t3)):
            return WrapT(i + j - 1, WrapT(i, t1, t2), t3), {"i": i, "j": j}
        case "AsscD2", WrapT(j, WrapT(i, t1, t2), t3) if classify(i, sort_of_term(t2), j) == "O":
            return WrapT(i, t1, WrapT(j - i + 1, t2, t3)), {"i": i, "j": j}
        case ("MixPerm1-fwd" | "MixPerm2-bwd"), WrapT(j, WrapT(i, t1, t2), t3) if (
            classify(i, sort_of_term(t2), j) == "P1"
        ):
            return WrapT(i, WrapT(j - sort_of_term(t2) + 1, t1, t3), t2), {"i": i, "j": j}
        case ("MixPerm1-bwd" | "MixPerm2-fwd"), WrapT(j, WrapT(i, t1, t2), t3) if (
            classify(i, sort_of_term(t2), j) == "P2"
        ):
            return WrapT(i + sort_of_term(t3) - 1, WrapT(j, t1, t3), t2), {"i": i, "j": j}
    return None


# ---------------------------------------------------------------------------
# reference term operations
#
# The definitions that is_canonical, the iterative replace_at and lift's
# Structural chains built from stored trace terms replaced, kept as the
# oracles those are checked against: canonical by sharp and term_of_config,
# replacement by recursion, and each trace step replayed through
# structural_step, which rewrites again with apply_rule.


def reference_is_canonical(t):
    return t == term_of_config(sharp(t))


def reference_replace_at(t, path, new):
    if not path:
        return new
    if not isinstance(t, (Cat, WrapT)):
        raise IndexError("path descends below a leaf")
    d, rest = path[0], path[1:]
    if d not in (0, 1):
        raise IndexError("bad path step %r; expected 0 or 1" % (d,))
    left = reference_replace_at(t.left, rest, new) if d == 0 else t.left
    right = reference_replace_at(t.right, rest, new) if d == 1 else t.right
    if isinstance(t, Cat):
        return Cat(left, right)
    return WrapT(t.i, left, right)


def reference_append_trace(md, trace):
    assert trace.start == md.conclusion.antecedent
    out = md
    for step in trace.steps:
        out = structural_step(out, step.app)
    return out


# The invert_trace that re-applied every inverse step, copied verbatim: it
# rebuilds each term that the forward trace already holds, and asserts only
# that the last one is the forward trace's start.


def parent_invert_trace(trace):
    tr = Tracer(trace.end())
    for step in reversed(trace.steps):
        tr.emit(INVERSE_RULE[step.app.rule], step.app.at, **step.app.params_dict())
    out = tr.trace()
    assert out.end() == trace.start
    return out


# The parent's normalize: five mutually recursive helpers, which the task loop
# in terms._canon replaced; kept as the oracle its traces are checked against.


def parent_normalize(t, budget=10000):
    tr = Tracer(t, budget=budget)
    _parent_canon(tr, ())
    return tr.trace()


def _parent_canon(tr: Tracer, path: tuple):
    sub = tr.at(path)
    if is_canonical(sub):
        return
    if isinstance(sub, ConstJ):
        tr.emit("UnitI-R-add", path)
        return
    if isinstance(sub, Leaf):
        if sort_of_type(sub.type) == 0:
            tr.emit("UnitI-R-add", path)
        else:
            _pad_leaf_gaps(tr, path)
            tr.emit("UnitI-R-add", path)
        return
    if isinstance(sub, Cat):
        _parent_canon(tr, path + (1,))
        _parent_cons(tr, path)
        return
    if isinstance(sub, WrapT):
        _parent_canon(tr, path + (1,))
        _parent_canon(tr, path + (0,))
        _parent_merge_wrap(tr, path)
        return
    raise TypeError("not a structural term: %r" % (sub,))


def _parent_cons(tr: Tracer, path: tuple):
    """Cat node whose right child is canonical --> canonical cons-list."""
    sub = tr.at(path)
    x = sub.left
    if isinstance(x, ConstI):
        tr.emit("UnitI-L-drop", path)
        return
    if isinstance(x, ConstJ):
        return
    if isinstance(x, Leaf):
        if sort_of_type(x.type) > 0:
            _pad_leaf_gaps(tr, path + (0,))
        return
    if isinstance(x, Cat):
        tr.emit("AsscC-fwd", path)
        _parent_cons(tr, path + (1,))
        _parent_cons(tr, path)
        return
    # wrap: canonicalize it standalone, then merge the two cons-lists
    _parent_canon(tr, path + (0,))
    _parent_merge_cat(tr, path)


def _parent_merge_cat(tr: Tracer, path: tuple):
    """Cat of two canonical cons-lists --> one canonical cons-list."""
    while True:
        sub = tr.at(path)
        if isinstance(sub.left, ConstI):
            tr.emit("UnitI-L-drop", path)
            return
        tr.emit("AsscC-fwd", path)
        path = path + (1,)


def _parent_merge_wrap(tr: Tracer, path: tuple):
    """Wrap of two canonical terms --> canonical cons-list."""
    sub = tr.at(path)
    i, cu = sub.i, sub.left
    head = cu.left
    w = sort_of_term(head)
    if isinstance(head, ConstJ) and i == 1:
        tr.emit("SW-left-bwd", path)
        _parent_merge_cat(tr, path)
        return
    if i > w:
        tr.emit("SW-right-fwd", path + (0,))
        tr.emit("AsscD2", path)
        tr.emit("SW-right-bwd", path)
        _parent_merge_wrap(tr, path + (1,))
        return
    # the filler lands inside the head occurrence's wrap chain
    tr.emit("SW-left-fwd", path + (0,))
    tr.emit("AsscD2", path)
    tr.emit("SW-left-bwd", path)
    _parent_merge_chain(tr, path + (0,))


def _parent_merge_chain(tr: Tracer, path: tuple):
    """Push the filler of (chain +i v) down to the gap that holds index i."""
    sub = tr.at(path)
    i, chain = sub.i, sub.left
    p = chain.i
    if i >= p:
        tr.emit("AsscD2", path)
        _parent_merge_wrap(tr, path + (1,))
        return
    tr.emit("MixPerm2-fwd", path)
    _parent_merge_chain(tr, path + (0,))


# The parent definitions that the address-based apply_chunks and the
# iterative canonical-term builder replaced: a walk of the whole region that
# collects each level's ranges, and a builder that recurses once per item and
# threads the address.


def reference_apply_chunks(region: HyperConfig, specs):
    """Replace each chunk of the region by a separator.

    Returns (abstracted region, tuple of chunk contents in flat order).
    """
    specs = tuple(specs)
    by_level = {}
    for idx, spec in enumerate(specs):
        lvl, start, end = spec
        lvl = tuple(lvl)
        if len(lvl) % 2 or start > end or start < 0:
            raise InstanceError("bad chunk spec %r" % (spec,))
        by_level.setdefault(lvl, []).append((start, end, idx))
    collected = {}
    order = []

    def walk(items, lvl):
        ranges = sorted(by_level.pop(lvl, ()))
        out = []
        i = 0
        ridx = 0
        while True:
            while ridx < len(ranges) and ranges[ridx][0] == i:
                start, end, idx = ranges[ridx]
                if end > len(items):
                    raise InstanceError("chunk %d:%d beyond the region" % (start, end))
                collected[idx] = HyperConfig(items[start:end])
                order.append(idx)
                out.append(SEP)
                i = end
                ridx += 1
            if ridx < len(ranges) and ranges[ridx][0] < i:
                raise InstanceError("overlapping chunks")
            if i >= len(items):
                if ridx != len(ranges):
                    raise InstanceError("chunk beyond the region")
                break
            item = items[i]
            if isinstance(item, Occurrence):
                gaps = tuple(
                    HyperConfig(tuple(walk(gap.items, lvl + (i, g))))
                    for g, gap in enumerate(item.gaps)
                )
                out.append(Occurrence(item.type, gaps))
            else:
                out.append(item)
            i += 1
        return out

    new_items = walk(region.items, ())
    if by_level:
        raise InstanceError("chunk level inside another chunk or outside the region")
    if order != list(range(len(specs))):
        raise InstanceError("chunks not in flat order")
    contents = tuple(collected[i] for i in range(len(specs)))
    return HyperConfig(tuple(new_items)), contents


def _reference_build_term(items: tuple, addr):
    """Cons-list term of an item sequence; tracks the leaf path of addr."""
    if not items:
        if addr is not None:
            raise IndexError("address beyond the item list")
        return ConstI(), None
    head = items[0]
    head_addr = addr if addr is not None and addr[0] == 0 else None
    tail_addr = (addr[0] - 1,) + addr[1:] if addr is not None and addr[0] > 0 else None
    tail, tail_path = _reference_build_term(items[1:], tail_addr)
    path = ((1,) + tail_path) if tail_path is not None else None
    if isinstance(head, Leaf0):
        if head_addr is not None:
            if len(head_addr) != 1:
                raise IndexError("address descends into a leaf item")
            path = (0,)
        return Cat(Leaf(head.type), tail), path
    if isinstance(head, Separator):
        if head_addr is not None:
            if len(head_addr) != 1:
                raise IndexError("address descends into a separator")
            path = (0,)
        return Cat(ConstJ(), tail), path
    # occurrence: wrap the gap fillers around the head leaf, gap 1 innermost
    a = len(head.gaps)
    chain = Leaf(head.type)
    chain_path = None
    if head_addr is not None and len(head_addr) == 1:
        chain_path = ()
    pos = 1
    for g, gap in enumerate(head.gaps):
        gap_addr = None
        if head_addr is not None and len(head_addr) > 1 and head_addr[1] == g:
            gap_addr = head_addr[2:]
        filler, filler_path = _reference_build_term(gap.items, gap_addr)
        chain = WrapT(pos, chain, filler)
        pos += sort_of_config(gap)
        if chain_path is not None:
            chain_path = (0,) + chain_path
        elif filler_path is not None:
            chain_path = (1,) + filler_path
    if chain_path is not None:
        path = (0,) + chain_path
    return Cat(chain, tail), path


def reference_term_of_config(cfg: HyperConfig):
    """The canonical structural term denoting cfg (sharp is its inverse)."""
    term, _ = _reference_build_term(cfg.items, None)
    return term


def reference_term_of_config_with_addr(cfg: HyperConfig, addr: tuple):
    """Canonical term plus the path of the leaf for the item at addr."""
    term, path = _reference_build_term(cfg.items, tuple(addr))
    if path is None:
        raise IndexError("item address %r not found" % (addr,))
    return term, path


def rule_app(rule: str, at: tuple = (), **params) -> RuleApp:
    """The RuleApp of `rule` at `at` with keyword indices, in sorted order."""
    return RuleApp(rule, tuple(at), tuple(sorted(params.items())))


def reference_rule_apps(t):
    """Every single rewrite step of t, by definition: each rule at each path
    (UnitJ-i-add with each i in 1..sort) kept when apply_rule does not raise."""
    out = []
    for path, sub in iter_subterms(t):
        for rule in RULE_NAMES:
            if rule == "UnitJ-i-add":
                tries = [rule_app(rule, path, i=i) for i in range(1, sort_of_term(sub) + 1)]
            else:
                tries = [rule_app(rule, path)]
            for app in tries:
                try:
                    apply_rule(t, app)
                except RuleError:
                    continue
                out.append(app)
    return out


# ---------------------------------------------------------------------------
# reference axioms and region rules
#
# Parent premise functions, copied verbatim, each with its own guards:
# - the axioms before hseq's shared _axiom;
# - DownL before its one region: it split its chunk specs at the principal
#   and abstracted each side on its own; DProdR before apply_chunks: it cut
#   its slice out with sub_slice and replace_range;
# - ProdR, UnderL, OverL and UpL before syntax bounded every address and
#   range and the premises' data types checked the sorts: they checked
#   their own split and region bounds, and _abstract checked the chunk count
#   and the abstraction's sort.
# They call today's apply_chunks, which test_hd pins on its own.
# REFERENCE_PREMISES maps each rule to its copy, to stand in the rule's
# hseq.RULES row.


def _split_specs(specs, sep_pos: int):
    """Split chunk specs of a combined region at the principal separator."""
    left, right = [], []
    for spec in specs:
        lvl, start, end = spec
        if lvl == ():
            if end <= sep_pos:
                left.append(spec)
            elif start >= sep_pos + 1:
                right.append(((), start - sep_pos - 1, end - sep_pos - 1))
            else:
                raise InstanceError("chunk overlaps the principal item")
        elif lvl[0] < sep_pos:
            left.append(spec)
        elif lvl[0] > sep_pos:
            right.append(((lvl[0] - sep_pos - 1,) + lvl[1:], start, end))
        else:
            raise InstanceError("chunk descends into the principal item")
    return tuple(left), tuple(right)


def _id(ant, succ, params):
    if ant != figure(succ):
        raise InstanceError("Id needs the figure of the succedent")
    return ()


def _ir(ant, succ, params):
    if ant != EMPTY:
        raise InstanceError("IR is Lambda => I")
    return ()


def _jr(ant, succ, params):
    if ant.items != (SEP,):
        raise InstanceError("JR is [] => J")
    return ()


def _dprod_r(ant, succ, params):
    level, start, end = params["excise"]
    level = tuple(level)
    slice_cfg = sub_slice(ant, level, start, end)
    main = replace_range(ant, level, start, end, (SEP,))
    if sep_index_at(main, level + (start,)) != succ.k:
        raise InstanceError("excised slice is not at gap %d" % succ.k)
    return (HSequent(main, succ.left), HSequent(slice_cfg, succ.right))


def _down_l(ant, succ, addr, item, params):
    t = item.type
    level, p = addr[:-1], addr[-1]
    q, r = params["mstart"], params["mend"]
    n = len(config_at(ant, level).items)
    if not (0 <= q <= p and p + 1 <= r <= n):
        raise InstanceError("bad region %r:%r" % (q, r))
    lspecs, rspecs = _split_specs(params["chunks"], p - q)
    absl, contl = apply_chunks(sub_slice(ant, level, q, p), lspecs)
    absr, contr = apply_chunks(sub_slice(ant, level, p + 1, r), rspecs)
    a = sort_of_type(t.left)
    gamma = HyperConfig(absl.items + (SEP,) + absr.items)
    ok = (
        len(contl) + len(contr) == a - 1
        and sort_of_config(gamma) == a
        and sort_of_config(absl) == t.k - 1
    )
    if not ok:
        raise InstanceError("abstraction does not fit the infix sort")
    new = figure_items(t.right, contl + _item_gaps(item) + contr)
    return (
        HSequent(gamma, t.left),
        HSequent(replace_range(ant, level, q, r, new), succ),
    )


def _prod_r(ant, succ, params):
    split = params["split"]
    if not 0 <= split <= len(ant.items):
        raise InstanceError("bad split %r" % (split,))
    return (
        HSequent(HyperConfig(ant.items[:split]), succ.left),
        HSequent(HyperConfig(ant.items[split:]), succ.right),
    )


def _abstract(region: HyperConfig, chunks, argument: Type):
    """Abstract the region into the argument's gaps; (abstracted, contents)."""
    abstracted, contents = apply_chunks(region, chunks)
    a = sort_of_type(argument)
    if len(contents) != a or sort_of_config(abstracted) != a:
        raise InstanceError("abstraction does not fit the argument sort")
    return abstracted, contents


def _under_l(ant, succ, addr, item, params):
    t = item.type
    level, p = addr[:-1], addr[-1]
    q = params["mstart"]
    if not 0 <= q <= p:
        raise InstanceError("bad region start %r" % (q,))
    abstracted, contents = _abstract(sub_slice(ant, level, q, p), params["chunks"], t.left)
    new = figure_items(t.right, contents + _item_gaps(item))
    return (
        HSequent(abstracted, t.left),
        HSequent(replace_range(ant, level, q, p + 1, new), succ),
    )


def _over_l(ant, succ, addr, item, params):
    t = item.type
    level, p = addr[:-1], addr[-1]
    r = params["mend"]
    if not p + 1 <= r <= len(config_at(ant, level).items):
        raise InstanceError("bad region end %r" % (r,))
    abstracted, contents = _abstract(sub_slice(ant, level, p + 1, r), params["chunks"], t.right)
    new = figure_items(t.left, _item_gaps(item) + contents)
    return (
        HSequent(abstracted, t.right),
        HSequent(replace_range(ant, level, p, r, new), succ),
    )


def _up_l(ant, succ, addr, item, params):
    t = item.type
    abstracted, contents = _abstract(item.gaps[t.k - 1], params["chunks"], t.right)
    new_gaps = item.gaps[: t.k - 1] + contents + item.gaps[t.k :]
    return (
        HSequent(abstracted, t.right),
        HSequent(splice_item(ant, addr, figure_items(t.left, new_gaps)), succ),
    )


REFERENCE_PREMISES = {
    "Id": _id,
    "IR": _ir,
    "JR": _jr,
    "ProdR": _prod_r,
    "DProdR": _dprod_r,
    "UnderL": _under_l,
    "OverL": _over_l,
    "UpL": _up_l,
    "DownL": _down_l,
}


# ---------------------------------------------------------------------------
# the parent's scanner and hd sequent parser
#
# The scanner as it was before it read tokens on demand (it tokenized the
# whole text when built, with the tokenizer that reference_tokenize below
# agrees with), the configuration parser as it was before it looked entries
# up in a read's table of spans, and Sequent.parse for hd sequents then,
# copied verbatim but for their names.  The type and term parsers use only
# what both scanners have.


class _ParentScanner:
    def __init__(self, text: str):
        self.text = text
        self.tokens = reference_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(
                "expected %s at position %d, found %r" % (value or kind, tok[2], tok[1] or "end")
            )
        return tok

    def at_end(self):
        return self.peek()[0] == "EOF"

    def error(self, msg: str):
        tok = self.peek()
        raise ParseError("%s at position %d (near %r)" % (msg, tok[2], tok[1] or "end"))


def _parent_parse_config_entry(sc, sig):
    kind, value, _ = sc.peek()
    if kind == "SEPTOK":
        sc.next()
        return SEP
    if kind == "INT":
        sc.next()
        sc.expect("PUNCT", ":")
        t = _parse_type_expr(sc, sig)
        return SegTok(t, int(value))
    t = _parse_type_expr(sc, sig)
    if sort_of_type(t) != 0:
        raise ParseError("bare item %s has sort %d; use segments" % (t, sort_of_type(t)))
    return Leaf0(t)


def _parent_parse_config_body(sc, sig) -> HyperConfig:
    kind, value, _ = sc.peek()
    if kind == "EOF":
        return EMPTY
    if kind == "NAME" and value == "Lambda":
        sc.next()
        return EMPTY
    raw = [_parent_parse_config_entry(sc, sig)]
    while sc.peek()[:2] == ("PUNCT", ","):
        sc.next()
        raw.append(_parent_parse_config_entry(sc, sig))
    return parse_flat(raw)


def parent_parse_hsequent(text: str, sig: Signature) -> HSequent:
    sc = _ParentScanner(text)
    ant = _parent_parse_config_body(sc, sig)
    sc.expect("DARROW")
    succ = _parse_type_expr(sc, sig)
    if not sc.at_end():
        sc.error("trailing input after sequent")
    try:
        return HSequent(ant, succ)
    except SortError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# reference sequents
#
# The two sequent classes and their parsers as they were before
# derivation.Sequent stated the sort check, the text form and the parsing
# steps once for both calculi, copied verbatim but for the "Reference" and
# "reference_" prefixes of their names, and for the parent's scanner and
# configuration parser above in place of the live ones.


@dataclass(frozen=True)
class ReferenceHSequent:
    antecedent: HyperConfig
    succedent: Type

    def __post_init__(self):
        a = sort_of_config(self.antecedent)
        b = sort_of_type(self.succedent)
        if a != b:
            raise SortError(
                "antecedent sort %d does not match succedent sort %d" % (a, b)
            )

    def __str__(self):
        return "%s => %s" % (config_str(self.antecedent), self.succedent)


def reference_parse_hsequent(text: str, sig: Signature) -> ReferenceHSequent:
    sc = _ParentScanner(text)
    cfg = _parent_parse_config_body(sc, sig)
    sc.expect("DARROW")
    t = _parse_type_expr(sc, sig)
    if not sc.at_end():
        sc.error("trailing input after sequent")
    try:
        return ReferenceHSequent(cfg, t)
    except SortError as exc:
        raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class ReferenceMSequent:
    antecedent: object  # structural term
    succedent: Type

    def __post_init__(self):
        a = sort_of_term(self.antecedent)
        b = sort_of_type(self.succedent)
        if a != b:
            raise SortError(
                "antecedent sort %d does not match succedent sort %d" % (a, b)
            )

    def __str__(self):
        return "%s -> %s" % (self.antecedent, self.succedent)


def reference_parse_msequent(text: str, sig: Signature) -> ReferenceMSequent:
    sc = _ParentScanner(text)
    t = _parse_term(sc, sig)
    sc.expect("ARROW")
    ty = _parse_type_expr(sc, sig)
    if not sc.at_end():
        sc.error("trailing input after sequent")
    try:
        return ReferenceMSequent(t, ty)
    except SortError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# reference search and rendering
#
# The two search closures that hseq's single search replaced (a first-proof
# search that remembers failures, an all-proofs search that remembers every
# subgoal and drops repeated derivations), the count check they prune with,
# as it was before types stored their atom counts, and the recursive
# JSON-object builder and LaTeX renderer that derivation_to_obj's and
# derivation_latex's explicit-stack walks replaced, kept as the oracles
# those are checked against.


def _reference_add_atoms(t: Type, sign: int, counts: dict) -> None:
    """Add each atom of t to counts with its polarity: results count sign,
    arguments of the implications -sign, units nothing."""
    while True:
        if isinstance(t, Atom):
            counts[t.name] = counts.get(t.name, 0) + sign
            return
        if isinstance(t, (Under, DDown)):
            _reference_add_atoms(t.left, -sign, counts)
            t = t.right
        elif isinstance(t, (Over, DUp)):
            _reference_add_atoms(t.right, -sign, counts)
            t = t.left
        elif isinstance(t, (Prod, DProd)):
            _reference_add_atoms(t.left, sign, counts)
            t = t.right
        else:
            return


def reference_atom_counts(t: Type) -> dict:
    counts = {}
    _reference_add_atoms(t, 1, counts)
    return {name: n for name, n in counts.items() if n}


def reference_balanced(key) -> bool:
    """The count invariant: without structural rules, every provable sequent
    has each atom's polarity-weighted count equal on both sides (van Benthem
    1991; Morrill, Valentin & Fadda 2011).  key is a _seq_key."""
    tokens, succ = key
    counts = {}
    for tok in tokens:
        if isinstance(tok, Leaf0) or (isinstance(tok, SegTok) and tok.idx == 0):
            _reference_add_atoms(tok.type, 1, counts)
    _reference_add_atoms(succ, -1, counts)
    return not any(counts.values())


def reference_prove(seq):
    failed = set()

    def go(s):
        key = _seq_key(s)
        if key in failed or not reference_balanced(key):
            return None
        for rule, params, premises in enumerate_rule_instances(s):
            subs = []
            for p in premises:
                sub = go(p)
                if sub is None:
                    break
                subs.append(sub)
            else:
                return HDerivation(rule, s, tuple(subs), params)
        failed.add(key)
        return None

    return go(seq)


def reference_prove_all(seq, limit=16):
    memo = {}

    def go(s):
        key = _seq_key(s)
        if key in memo:
            return memo[key]
        if not reference_balanced(key):
            return []
        out = []
        for rule, params, premises in enumerate_rule_instances(s):
            lists = [go(p) for p in premises]
            if any(not l for l in lists):
                continue
            for combo in product(*lists):
                out.append(HDerivation(rule, s, combo, params))
                if len(out) >= limit:
                    break
            if len(out) >= limit:
                break
        out = list(dict.fromkeys(out))
        memo[key] = out
        return out

    return go(seq)


def reference_first_violation(d, node_ok):
    """The first node, in post-order, whose own inference `node_ok` rejects;
    None when every inference is valid.  Ill-formed parameters reject too."""
    stack = [(d, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((p, False) for p in reversed(node.premises))
            continue
        try:
            if node_ok(node):
                continue
        except (ValueError, IndexError, KeyError, TypeError):
            pass
        return node
    return None


def reference_derivation_to_obj(d):
    return {
        "rule": d.rule,
        "sequent": str(d.conclusion),
        "params": params_to_obj(d.params),
        "premises": [reference_derivation_to_obj(p) for p in d.premises],
    }


def reference_derivation_latex(d):
    def go(node):
        concl = "\\texttt{%s}" % latex_escape(str(node.conclusion))
        prems = " & ".join(go(p) for p in node.premises)
        return "\\infer[\\mathrm{%s}]{%s}{%s}" % (latex_escape(node.rule), concl, prems)

    return go(d)


# ---------------------------------------------------------------------------
# reference tokenizer
#
# The scanner that syntax's single named-group regex replaced: nine regexes
# tried in turn at each position, copied verbatim.

_TOKEN_SPEC = [
    ("WS", re.compile(r"[ \t]+")),
    ("ARROW", re.compile(r"->")),
    ("DARROW", re.compile(r"=>")),
    ("SEPTOK", re.compile(r"\[\]")),
    ("NAME", re.compile(r"[A-Za-z][A-Za-z0-9_]*")),
    ("INT", re.compile(r"[0-9]+")),
    ("KOP", re.compile(r"[@!^][0-9]+")),
    ("PLUS", re.compile(r"\+[0-9]*")),
    ("PUNCT", re.compile(r"[\\/.(),;:{}]")),
]


def reference_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        for kind, rx in _TOKEN_SPEC:
            m = rx.match(text, pos)
            if m:
                if kind != "WS":
                    tokens.append((kind, m.group(), pos))
                pos = m.end()
                break
        else:
            raise ParseError("unexpected character %r at %d" % (text[pos], pos))
    tokens.append(("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# forward derivation generation
#
# Each builder turns derivations already in the pool into the conclusion of
# one more rule application, then recovers the rule parameters by matching
# the premises among the enumerated instances of the conclusion.


def hderivation_depth(d):
    return 1 + max((hderivation_depth(p) for p in d.premises), default=0)


def _match_instance(rule, conclusion, children):
    want = tuple(c.conclusion for c in children)
    for _, params, premises in enumerate_rule_instances(conclusion, only_rule=rule):
        if premises == want:
            return HDerivation(rule, conclusion, children, params)
    return None


def _figure_type(item):
    """The item's type when the item on its own is a figure, else None."""
    if isinstance(item, Separator):
        return None
    if isinstance(item, Occurrence) and any(g.items for g in item.gaps):
        return None
    return item.type


def _levels(cfg, prefix=()):
    yield prefix, cfg
    for i, item in enumerate(cfg.items):
        if isinstance(item, Occurrence):
            for g, gap in enumerate(item.gaps):
                yield from _levels(gap, prefix + (i, g))


def _items(cfg):
    return [(addr, it) for addr, it in iter_items(cfg) if not isinstance(it, Separator)]


def _g_id(rng, pool, atoms):
    t = random_type(rng, atoms, rng.randint(0, 1))
    return HDerivation("Id", HSequent(figure(t), t), (), ())


def _g_ir(rng, pool, atoms):
    return HDerivation("IR", HSequent(EMPTY, UnitI()), (), ())


def _g_jr(rng, pool, atoms):
    return HDerivation("JR", HSequent(HyperConfig((SEP,)), UnitJ()), (), ())


def _g_under_r(rng, pool, atoms):
    d = rng.choice(pool)
    items = d.conclusion.antecedent.items
    if not items:
        return None
    a = _figure_type(items[0])
    if a is None:
        return None
    concl = HSequent(HyperConfig(items[1:]), Under(a, d.conclusion.succedent))
    return _match_instance("UnderR", concl, (d,))


def _g_over_r(rng, pool, atoms):
    d = rng.choice(pool)
    items = d.conclusion.antecedent.items
    if not items:
        return None
    b = _figure_type(items[-1])
    if b is None:
        return None
    concl = HSequent(HyperConfig(items[:-1]), Over(d.conclusion.succedent, b))
    return _match_instance("OverR", concl, (d,))


def _g_down_r(rng, pool, atoms):
    d = rng.choice(pool)
    items = d.conclusion.antecedent.items
    if len(items) != 1 or not isinstance(items[0], Occurrence):
        return None
    occ = items[0]
    nonempty = [i for i, g in enumerate(occ.gaps) if g.items]
    if len(nonempty) > 1:
        return None
    k = nonempty[0] + 1 if nonempty else rng.randint(1, len(occ.gaps))
    concl = HSequent(occ.gaps[k - 1], DDown(k, occ.type, d.conclusion.succedent))
    return _match_instance("DownR", concl, (d,))


def _g_up_r(rng, pool, atoms):
    d = rng.choice(pool)
    cands = [
        (addr, it)
        for addr, it in _items(d.conclusion.antecedent)
        if _figure_type(it) is not None
    ]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    gamma = splice_item(d.conclusion.antecedent, addr, (SEP,))
    k = sep_index_at(gamma, addr)
    concl = HSequent(gamma, DUp(k, d.conclusion.succedent, it.type))
    return _match_instance("UpR", concl, (d,))


def _g_prod_r(rng, pool, atoms):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    ant = HyperConfig(d1.conclusion.antecedent.items + d2.conclusion.antecedent.items)
    concl = HSequent(ant, Prod(d1.conclusion.succedent, d2.conclusion.succedent))
    return _match_instance("ProdR", concl, (d1, d2))


def _g_dprod_r(rng, pool, atoms):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    sort = sort_of_config(d1.conclusion.antecedent)
    if sort == 0:
        return None
    k = rng.randint(1, sort)
    ant = wrap_at(d1.conclusion.antecedent, k, d2.conclusion.antecedent)
    concl = HSequent(ant, DProd(k, d1.conclusion.succedent, d2.conclusion.succedent))
    return _match_instance("DProdR", concl, (d1, d2))


def _g_il(rng, pool, atoms):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    level, cfg = rng.choice(list(_levels(ant)))
    pos = rng.randint(0, len(cfg.items))
    new_ant = replace_range(ant, level, pos, pos, (Leaf0(UnitI()),))
    concl = HSequent(new_ant, d.conclusion.succedent)
    return _match_instance("IL", concl, (d,))


def _g_jl(rng, pool, atoms):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    level, cfg = rng.choice(list(_levels(ant)))
    i = rng.randint(0, len(cfg.items))
    j = rng.randint(i, len(cfg.items))
    gap = HyperConfig(cfg.items[i:j])
    occ = Occurrence(UnitJ(), (gap,))
    new_ant = replace_range(ant, level, i, j, (occ,))
    concl = HSequent(new_ant, d.conclusion.succedent)
    return _match_instance("JL", concl, (d,))


def _g_prod_l(rng, pool, atoms):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    spots = []
    for level, cfg in _levels(ant):
        for p in range(len(cfg.items) - 1):
            if not isinstance(cfg.items[p], Separator) and not isinstance(
                cfg.items[p + 1], Separator
            ):
                spots.append((level, p))
    if not spots:
        return None
    level, p = rng.choice(spots)
    cfg = config_at(ant, level)
    x, y = cfg.items[p], cfg.items[p + 1]
    t = Prod(x.type, y.type)
    new = figure_items(t, _item_gaps(x) + _item_gaps(y))
    new_ant = replace_range(ant, level, p, p + 2, new)
    concl = HSequent(new_ant, d.conclusion.succedent)
    return _match_instance("ProdL", concl, (d,))


def _g_dprod_l(rng, pool, atoms):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    spots = []
    for addr, it in _items(ant):
        if not isinstance(it, Occurrence):
            continue
        for g, gap in enumerate(it.gaps):
            if len(gap.items) == 1 and not isinstance(gap.items[0], Separator):
                spots.append((addr, g))
    if not spots:
        return None
    addr, g = rng.choice(spots)
    it = item_at(ant, addr)
    inner = it.gaps[g].items[0]
    try:
        t = DProd(g + 1, it.type, inner.type)
    except SortError:
        return None
    new_gaps = it.gaps[:g] + _item_gaps(inner) + it.gaps[g + 1 :]
    new_ant = splice_item(ant, addr, figure_items(t, new_gaps))
    concl = HSequent(new_ant, d.conclusion.succedent)
    return _match_instance("DProdL", concl, (d,))


def _g_under_l(rng, pool, atoms):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    a = sort_of_type(d1.conclusion.succedent)
    cands = [(addr, it) for addr, it in _items(d2.conclusion.antecedent)
             if len(_item_gaps(it)) >= a]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    try:
        t = Under(d1.conclusion.succedent, it.type)
    except SortError:
        return None
    region = generalized_wrap(d1.conclusion.antecedent, g[:a]).items
    new = region + figure_items(t, g[a:])
    new_ant = splice_item(d2.conclusion.antecedent, addr, new)
    concl = HSequent(new_ant, d2.conclusion.succedent)
    return _match_instance("UnderL", concl, (d1, d2))


def _g_over_l(rng, pool, atoms):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    b = sort_of_type(d1.conclusion.succedent)
    cands = [(addr, it) for addr, it in _items(d2.conclusion.antecedent)
             if len(_item_gaps(it)) >= b]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    try:
        t = Over(it.type, d1.conclusion.succedent)
    except SortError:
        return None
    region = generalized_wrap(d1.conclusion.antecedent, g[len(g) - b :] if b else ()).items
    new = figure_items(t, g[: len(g) - b]) + region
    new_ant = splice_item(d2.conclusion.antecedent, addr, new)
    concl = HSequent(new_ant, d2.conclusion.succedent)
    return _match_instance("OverL", concl, (d1, d2))


def _g_up_l(rng, pool, atoms):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    b = sort_of_type(d1.conclusion.succedent)
    cands = [(addr, it) for addr, it in _items(d2.conclusion.antecedent)
             if len(_item_gaps(it)) >= b + 1 or (b >= 1 and len(_item_gaps(it)) >= b)]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    k_hi = len(g) - b + 1
    if k_hi < 1:
        return None
    k = rng.randint(1, k_hi)
    try:
        t = DUp(k, it.type, d1.conclusion.succedent)
    except SortError:
        return None
    region = generalized_wrap(d1.conclusion.antecedent, g[k - 1 : k - 1 + b])
    new_gaps = g[: k - 1] + (region,) + g[k - 1 + b :]
    new_ant = splice_item(d2.conclusion.antecedent, addr, figure_items(t, new_gaps))
    concl = HSequent(new_ant, d2.conclusion.succedent)
    return _match_instance("UpL", concl, (d1, d2))


def _g_down_l(rng, pool, atoms):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    a = sort_of_type(d1.conclusion.succedent)
    if a == 0:
        return None
    gamma = d1.conclusion.antecedent
    top_seps = [p for p, x in enumerate(gamma.items) if isinstance(x, Separator)]
    if not top_seps:
        return None
    pos = rng.choice(top_seps)
    k = sep_index_at(gamma, (pos,))
    cands = [(addr, it) for addr, it in _items(d2.conclusion.antecedent)
             if len(_item_gaps(it)) >= a - 1]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    contl, contr = g[: k - 1], g[len(g) - (a - k) :] if a - k else ()
    item_gaps = g[k - 1 : len(g) - (a - k)] if a - k else g[k - 1 :]
    try:
        t = DDown(k, d1.conclusion.succedent, it.type)
    except SortError:
        return None
    absl, absr = HyperConfig(gamma.items[:pos]), HyperConfig(gamma.items[pos + 1 :])
    region_l = generalized_wrap(absl, contl).items
    region_r = generalized_wrap(absr, contr).items
    new = region_l + figure_items(t, item_gaps) + region_r
    new_ant = splice_item(d2.conclusion.antecedent, addr, new)
    concl = HSequent(new_ant, d2.conclusion.succedent)
    return _match_instance("DownL", concl, (d1, d2))


_BUILDERS = (
    _g_under_r,
    _g_over_r,
    _g_down_r,
    _g_up_r,
    _g_prod_r,
    _g_dprod_r,
    _g_il,
    _g_jl,
    _g_prod_l,
    _g_dprod_l,
    _g_under_l,
    _g_over_l,
    _g_up_l,
    _g_down_l,
)


def generate_derivations(rng, atoms, want, max_depth=5, max_flat=12):
    """Grow random valid derivations; returns `want` of depth >= 2."""
    pool = [_g_id(rng, [], atoms) for _ in range(10)]
    pool.append(_g_ir(rng, pool, atoms))
    pool.append(_g_jr(rng, pool, atoms))
    out = []
    attempts = 0
    while len(out) < want and attempts < want * 200:
        attempts += 1
        builder = rng.choice(_BUILDERS)
        try:
            d = builder(rng, pool, atoms)
        except SortError:
            d = None
        if d is None:
            continue
        if len(flatten(d.conclusion.antecedent)) > max_flat:
            continue
        depth = hderivation_depth(d)
        if depth > max_depth:
            continue
        pool.append(d)
        if depth >= 2:
            out.append(d)
        if rng.random() < 0.02:
            pool.append(_g_id(rng, pool, atoms))
    return out
