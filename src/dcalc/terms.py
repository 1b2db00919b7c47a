"""Structural terms and the sorted rewrite system over them.

A structural term is built from type leaves, the constants II (empty string)
and JJ (single separator), continuous concatenation ``(s + t)`` and wrapping
``(s +k t)`` which plugs t into the k-th separator position of s.  Like a
type, each term node stores its sort when it is built (a wrap checks its
index against its left operand's stored sort), so ``sort_of_term`` is O(1);
Cat and WrapT set their fields and sort in one hand-written ``__init__``,
and stay dataclasses for ==, hash and repr.
The ``sharp`` map sends every term to the hyperconfiguration it denotes; the
twenty rewrite rules (unit laws, associativities, split-wrap and mixed
permutation) all preserve sharp, and two terms are equivalent exactly when
their sharp images coincide.  sharp joins flat tokens and the offsets of the
separators among them, never items: the configuration it returns reads its
items off its tokens when they are first asked for.  It stores its image,
tokens and offsets, on each Cat or WrapT operand holding at most two thirds
of its parent's flat tokens (not as a dataclass field), O(n log n) tokens
per term, so the image of a one-step rewrite joins little more than the
path to its redex; a type leaf's image is stored on its type, never on the
leaf.  The cases of ``_apply`` are the one statement of the twenty rules:
the rule's name picks its case, whose one pattern is the redex and whose
body builds the reduct, so a rule that does not fit costs a few string
compares.  ``_checked_step`` is the one checker of a given step (int
indices, a path to a subterm the rule fits, indices the redex fills); it
rebuilds the spine above the reduct, or compares a known result with the
spine and the reduct in place.  ``apply_rule``, ``is_step``, ``validate``,
``invert_trace`` and ``trace_from_obj`` wrap it; ``Tracer.emit``, which
records the indices its redex fills, is the one unchecked builder.

``normalize`` produces an explicit step-by-step trace from a term to the
canonical term of its sharp image (the cons-list built by term_of_config),
in one loop over a stack of pending tasks, so no term is too deep for it;
``is_canonical`` recognises that shape in one pass, without computing sharp,
so normalization skips subterms already in it.  A canonical term's Leaf and
JJ leaves, left to right, are its items' leaves in flat order (``_leaf_path``).
``extract`` pulls a designated leaf occurrence out of a term as a final wrap,
again with a full trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

from .derivation import _expect
from .syntax import (
    Atom,
    HyperConfig,
    Leaf0,
    ParseError,
    SEP,
    SegTok,
    Separator,
    SortError,
    Signature,
    Type,
    _FlatConfig,
    _parse_type_expr,
    _parse_whole,
    _Scanner,
    _stored,
    figure,
    flatten,
    item_at,
    iter_items,
    sort_of_type,
)


class RuleError(ValueError):
    """A rewrite rule applied to a subterm of the wrong shape."""


class BudgetError(RuntimeError):
    """A rewrite trace exceeded the step budget."""


class ExtractionError(ValueError):
    """Extraction attempted at a position that is not visible."""


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class ConstI:
    sort = 0

    def __str__(self):
        return "II"


@dataclass(frozen=True)
class ConstJ:
    sort = 1

    def __str__(self):
        return "JJ"


@dataclass(frozen=True)
class Leaf:
    type: Type
    sort: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sort", sort_of_type(self.type))

    def __str__(self):
        return str(self.type)


_setattr = object.__setattr__  # sets a field of a frozen node as it is built


def _not_a_term(t):
    return TypeError("not a structural term: %r" % (t,))


@dataclass(frozen=True, init=False)
class Cat:
    left: "StructTerm"
    right: "StructTerm"
    sort: int = field(init=False, repr=False, compare=False)
    _image = None  # (flat tokens, separator offsets) once sharp stores it; not a field

    def __init__(self, left, right):
        if type(left) not in _TERM_CLASSES:
            raise _not_a_term(left)
        if type(right) not in _TERM_CLASSES:
            raise _not_a_term(right)
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _setattr(self, "sort", left.sort + right.sort)

    def __str__(self):
        return "(%s + %s)" % (self.left, self.right)


@dataclass(frozen=True, init=False)
class WrapT:
    i: int
    left: "StructTerm"
    right: "StructTerm"
    sort: int = field(init=False, repr=False, compare=False)
    _image = None  # (flat tokens, separator offsets) once sharp stores it; not a field

    def __init__(self, i, left, right):
        if type(left) not in _TERM_CLASSES:
            raise _not_a_term(left)
        s = left.sort
        if s < 1:
            raise SortError("wrap on a sort-0 term %s" % (left,))
        if not 1 <= i <= s:
            raise SortError("wrap index %d out of range 1..%d" % (i, s))
        if type(right) not in _TERM_CLASSES:
            raise _not_a_term(right)
        _setattr(self, "i", i)
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _setattr(self, "sort", s + right.sort - 1)

    def __str__(self):
        return "(%s +%d %s)" % (self.left, self.i, self.right)


StructTerm = object  # union of the five node classes above
_TERM_CLASSES = frozenset((ConstI, ConstJ, Leaf, Cat, WrapT))


def sort_of_term(t) -> int:
    """Sort of a structural term, stored in the node when it was built."""
    if type(t) in _TERM_CLASSES:
        return t.sort
    raise _not_a_term(t)


def parse_term(text: str, sig: Signature):
    return _parse_whole(_parse_term, text, sig, "term")


def _parse_term(sc: _Scanner, sig: Signature):
    kind, value, _ = sc.peek()
    if kind == "NAME" and value == "II":
        sc.next()
        return ConstI()
    if kind == "NAME" and value == "JJ":
        sc.next()
        return ConstJ()
    if kind == "PUNCT" and value == "(":
        save = sc.pos
        sc.next()
        try:
            left = _parse_term(sc, sig)
            tok = sc.next()
            if tok[0] != "PLUS":
                raise ParseError("expected + at position %d" % tok[2])
            right = _parse_term(sc, sig)
            sc.expect("PUNCT", ")")
        except ParseError:
            sc.pos = save
        else:
            if len(tok[1]) > 1:
                return WrapT(int(tok[1][1:]), left, right)
            return Cat(left, right)
    t = _parse_type_expr(sc, sig)
    return Leaf(t)


# ---------------------------------------------------------------------------
# paths


def _descend(t, path: tuple):
    """(spine, subterm at `path`), where the spine holds the (node, step)
    pairs the walk passes, from the root down.  A path below a leaf or a
    step other than 0 or 1 raises IndexError."""
    spine = []
    for d in path:
        if not isinstance(t, (Cat, WrapT)):
            raise IndexError("path descends below a leaf")
        spine.append((t, d))
        if d == 0:
            t = t.left
        elif d == 1:
            t = t.right
        else:
            raise IndexError("bad path step %r; expected 0 or 1" % (d,))
    return spine, t


def subterm_at(t, path: tuple):
    return _descend(t, path)[1]


def _rebuild(spine: list, new):
    """The spine's nodes rebuilt around `new`, innermost node first."""
    for node, d in reversed(spine):
        left = new if d == 0 else node.left
        right = new if d == 1 else node.right
        new = Cat(left, right) if type(node) is Cat else WrapT(node.i, left, right)
    return new


def replace_at(t, path: tuple, new):
    """t with the subterm at `path` replaced by `new`: one walk down the path,
    then the spine above it rebuilt; IndexError on a bad path."""
    return _rebuild(_descend(t, path)[0], new)


def iter_subterms(t) -> Iterator:
    """Yield (path, subterm) pairs in pre-order, left before right, with an
    explicit stack."""
    todo = [((), t)]
    while todo:
        path, t = todo.pop()
        yield path, t
        if type(t) is Cat or type(t) is WrapT:
            todo += ((path + (1,), t.right), (path + (0,), t.left))


# ---------------------------------------------------------------------------
# the rewrite rules


# each rewrite rule paired with its inverse, in enumeration order
_INVERSE_PAIRS = (
    ("UnitI-L-add", "UnitI-L-drop"),
    ("UnitI-R-add", "UnitI-R-drop"),
    ("UnitJ-L-add", "UnitJ-L-drop"),
    ("UnitJ-i-add", "UnitJ-i-drop"),
    ("AsscC-fwd", "AsscC-bwd"),
    ("SW-left-fwd", "SW-left-bwd"),
    ("SW-right-fwd", "SW-right-bwd"),
    ("AsscD1", "AsscD2"),
    ("MixPerm1-fwd", "MixPerm1-bwd"),
    ("MixPerm2-fwd", "MixPerm2-bwd"),
)
INVERSE_RULE = {r: s for a, b in _INVERSE_PAIRS for r, s in ((a, b), (b, a))}
RULE_NAMES = tuple(INVERSE_RULE)


@dataclass(frozen=True)
class RuleApp:
    """One rewrite step: a rule name, a subterm path, and its indices."""

    rule: str
    at: tuple = ()
    params: tuple = ()

    def params_dict(self) -> dict:
        return dict(self.params)

    def __str__(self):
        ps = ",".join("%s=%d" % kv for kv in self.params)
        loc = "".join("LR"[d] for d in self.at) or "root"
        return "%s@%s%s" % (self.rule, loc, " [%s]" % ps if ps else "")


def classify(i: int, sort2: int, j: int) -> str:
    """Position of the outer wrap j relative to the inner wrap (i, sort2).

    For a redex (t1 +i t2) +j t3: P1 when t3 goes strictly right of t2,
    P2 when strictly left, O when j falls among t2's own separator positions.
    """
    if i + sort2 - 1 < j:
        return "P1"
    if j < i:
        return "P2"
    return "O"


def _apply(s, rule: str, i: Optional[int] = None):
    """Apply one rule at the root of s: (reduct, filled indices), or None when
    the rule does not fit.  Each case is the one statement of its rule: the
    rule's name picks it, then its one pattern is the redex.  `i` is
    UnitJ-i-add's index, the one index no redex holds; later cases rebind
    the name."""
    match rule:
        case "UnitI-L-add":
            return Cat(ConstI(), s), {}
        case "UnitI-L-drop":
            match s:
                case Cat(ConstI(), t):
                    return t, {}
        case "UnitI-R-add":
            return Cat(s, ConstI()), {}
        case "UnitI-R-drop":
            match s:
                case Cat(t, ConstI()):
                    return t, {}
        case "UnitJ-L-add":
            return WrapT(1, ConstJ(), s), {}
        case "UnitJ-L-drop":
            match s:
                case WrapT(1, ConstJ(), t):
                    return t, {}
        case "UnitJ-i-add":
            if i is not None and 1 <= i <= sort_of_term(s):
                return WrapT(i, s, ConstJ()), {"i": i}
        case "UnitJ-i-drop":
            match s:
                case WrapT(k, t, ConstJ()):
                    return t, {"i": k}
        case "AsscC-fwd":
            match s:
                case Cat(Cat(t1, t2), t3):
                    return Cat(t1, Cat(t2, t3)), {}
        case "AsscC-bwd":
            match s:
                case Cat(t1, Cat(t2, t3)):
                    return Cat(Cat(t1, t2), t3), {}
        case "SW-left-fwd":
            match s:
                case Cat(t1, t2):
                    return WrapT(1, Cat(ConstJ(), t2), t1), {}
        case "SW-left-bwd":
            match s:
                case WrapT(1, Cat(ConstJ(), t2), t1):
                    return Cat(t1, t2), {}
        case "SW-right-fwd":
            match s:
                case Cat(t1, t2):
                    k = sort_of_term(t1) + 1
                    return WrapT(k, Cat(t1, ConstJ()), t2), {"i": k}
        case "SW-right-bwd":
            match s:
                case WrapT(k, Cat(t1, ConstJ()), t2) if k == sort_of_term(t1) + 1:
                    return Cat(t1, t2), {"i": k}
        case "AsscD1":
            match s:
                case WrapT(i, t1, WrapT(j, t2, t3)):
                    return WrapT(i + j - 1, WrapT(i, t1, t2), t3), {"i": i, "j": j}
        case "AsscD2":
            match s:
                case WrapT(j, WrapT(i, t1, t2), t3) if classify(i, sort_of_term(t2), j) == "O":
                    return WrapT(i, t1, WrapT(j - i + 1, t2, t3)), {"i": i, "j": j}
        case "MixPerm1-fwd" | "MixPerm2-bwd":
            match s:
                case WrapT(j, WrapT(i, t1, t2), t3) if (
                    classify(i, sort_of_term(t2), j) == "P1"
                ):
                    return WrapT(i, WrapT(j - sort_of_term(t2) + 1, t1, t3), t2), {"i": i, "j": j}
        case "MixPerm1-bwd" | "MixPerm2-fwd":
            match s:
                case WrapT(j, WrapT(i, t1, t2), t3) if (
                    classify(i, sort_of_term(t2), j) == "P2"
                ):
                    return WrapT(i + sort_of_term(t3) - 1, WrapT(j, t1, t3), t2), {"i": i, "j": j}
    return None


def _reduct(sub, rule: str, at: tuple, i: Optional[int]):
    """`rule` applied at the root of `sub`, the subterm at `at`: (reduct,
    filled indices), or RuleError when the rule does not fit."""
    done = _apply(sub, rule, i)
    if done is None:
        raise RuleError(
            "%s does not fit the subterm at %r" % (rule, at)
            if rule in RULE_NAMES
            else "unknown rule %r" % (rule,)
        )
    return done


def _checked_step(t, app: RuleApp, u=None):
    """One rewrite step of t, checked: (new term, reduct, filled indices).
    Each check raises RuleError, in this order: the given indices are plain
    ints; one walk down `app.at` (IndexError on a bad path) reaches a
    subterm the rule fits; the given indices are the ones the redex fills.
    Then the spine is rebuilt above the reduct or, given `u`, u is compared
    in place with the spine (siblings by identity first) and the reduct,
    and the new term is u when the step gives it, else None."""
    rule, at, given = app.rule, app.at, app.params_dict()
    for key, val in given.items():
        if type(val) is not int:  # true, 1.0 and "1" are not step indices
            raise RuleError("%s at %r: parameter %s=%r is not an integer" % (rule, at, key, val))
    spine, sub = _descend(t, at)
    reduct, filled = _reduct(sub, rule, at, given.get("i"))
    for key, val in given.items():
        if key not in filled:
            raise RuleError("%s at %r: the step takes no parameter %s" % (rule, at, key))
        if filled[key] != val:
            raise RuleError(
                "%s at %r: parameter %s=%d does not match the redex (%d)"
                % (rule, at, key, val, filled[key])
            )
    if u is None:
        return _rebuild(spine, reduct), reduct, filled
    v = u
    for node, d in spine:
        cls = type(node)
        if type(v) is not cls or (cls is WrapT and v.i != node.i):
            break
        if d == 0:
            if v.right is not node.right and v.right != node.right:
                break
            v = v.left
        elif v.left is not node.left and v.left != node.left:
            break
        else:
            v = v.right
    else:
        if reduct == v:
            return u, reduct, filled
    return None, reduct, filled


def apply_rule(t, app: RuleApp):
    """Apply one rewrite step to the whole term; validates shape and indices."""
    return _checked_step(t, app)[0]


def is_step(t, app: RuleApp, u) -> bool:
    """apply_rule(t, app) == u, raising what apply_rule(t, app) raises, but
    checked in place: only the reduct at the bottom of `app.at` is built."""
    return _checked_step(t, app, u)[0] is not None


def enumerate_rule_apps(t) -> list:
    """All single rewrite steps applicable anywhere in t, in a fixed order."""
    out = []
    for path, sub in iter_subterms(t):
        for rule in RULE_NAMES:
            if rule == "UnitJ-i-add":
                out += (RuleApp(rule, path, (("i", i),)) for i in range(1, sub.sort + 1))
            elif _apply(sub, rule) is not None:
                out.append(RuleApp(rule, path))
    return out


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TraceStep:
    app: RuleApp
    result: object  # whole term after the step


@dataclass(frozen=True)
class RewriteTrace:
    start: object
    steps: tuple = ()

    def end(self):
        return self.steps[-1].result if self.steps else self.start

    def validate(self) -> bool:
        """Does each step rewrite the term before it into its result?  A step
        that does not fit, or has a bad path or index, is False too."""
        cur = self.start
        for step in self.steps:
            try:
                if _checked_step(cur, step.app, step.result)[0] is None:
                    return False
            except (IndexError, RuleError):
                return False
            cur = step.result
        return True

    def __len__(self):
        return len(self.steps)


class Tracer:
    """Accumulates rewrite steps applied to one evolving term."""

    def __init__(self, start, budget: Optional[int] = None):
        self.start = start
        self.term = start
        self.steps = []
        self.budget = budget

    def at(self, path: tuple):
        return subterm_at(self.term, path)

    def emit(self, rule: str, at: tuple = (), **params):
        spine, sub = _descend(self.term, at)
        reduct, filled = _reduct(sub, rule, at, params.get("i"))
        self.term = _rebuild(spine, reduct)
        app = RuleApp(rule, tuple(at), tuple(sorted(filled.items())))
        self.steps.append(TraceStep(app, self.term))
        if self.budget is not None and len(self.steps) > self.budget:
            raise BudgetError("rewrite trace exceeded budget of %d steps" % self.budget)

    def trace(self) -> RewriteTrace:
        return RewriteTrace(self.start, tuple(self.steps))


def _trace_step(k: int, t, app: RuleApp, u):
    """(reduct, filled indices) of step k of a trace, t to u, checked; a
    step that does not give u raises RuleError naming it."""
    new, reduct, filled = _checked_step(t, app, u)
    if new is None:
        raise RuleError("trace step %d, %s, does not give its result" % (k, app))
    return reduct, filled


def invert_trace(trace: RewriteTrace) -> RewriteTrace:
    """The reverse trace: same paths, each rule replaced by its inverse.

    Each forward step goes through the one step checker, so a step that
    ``validate`` rejects raises RuleError (IndexError for a path off its
    term).  The inverse of step k ends at the term the trace holds before
    it, and its indices are the ones the inverse rule fills on the checked
    reduct; a rule fills indices exactly when its inverse does."""
    cur, steps = trace.start, []
    for k, step in enumerate(trace.steps, 1):
        reduct, filled = _trace_step(k, cur, step.app, step.result)
        rule, params = INVERSE_RULE[step.app.rule], ()
        if filled:
            params = tuple(sorted(_apply(reduct, rule, filled.get("i"))[1].items()))
        steps.append(TraceStep(RuleApp(rule, step.app.at, params), cur))
        cur = step.result
    steps.reverse()
    return RewriteTrace(trace.end(), tuple(steps))


# ---------------------------------------------------------------------------
# sharp and equivalence


_JOIN = object()  # on sharp's stack: the term under it has both operand images ready
_II_IMAGE = ((), ())
_JJ_IMAGE = ((SEP,), (0,))


def _leaf_image(ty: Type):
    """The image of a leaf of type ty: the flat tokens of its figure, which
    stores them too, and separators at offsets 1, 3, ..., 2a-1."""
    return _stored(figure(ty), "_flat", flatten), tuple(range(1, 2 * sort_of_type(ty), 2))


def sharp(t) -> HyperConfig:
    """The hyperconfiguration a structural term denotes.

    One post-order pass with an explicit stack of images, each a pair of
    the flat tokens and the offsets of the separators among them.  A Cat
    concatenates its operands' tokens and shifts the right operand's
    offsets past the left's tokens.  A WrapT (s +k u) reads the offset p of
    s's k-th separator, puts u's tokens in place of token p and splices u's
    offsets, shifted by p, into s's.  A leaf's image is stored on its
    type, so every leaf of one type shares it: the flat tokens of the
    type's figure, and for sort a separators at offsets 1, 3, ..., 2a-1.
    II and JJ share one image each.  No item is built: the configuration
    returned holds only its flat tokens, so ``flatten`` of it costs
    nothing, and it reads its items off them (``parse_flat``) when they
    are first asked for.

    When a node is joined, each operand that is a Cat or WrapT with at most
    two thirds of the node's flat tokens stores its image on itself, and
    later passes take it as finished: once sharp(t) has run, the image of a
    one-step rewrite of t joins little more than the rebuilt path to its
    redex.  So every token lies under O(log n) stored images, O(n log n)
    tokens per term; the root and the operands on a heavy path, such as a
    long spine's, store nothing.  A stored image holds tokens and offsets,
    never a term, so reference counting frees it with its node.
    """
    images = []  # (flat tokens, separator offsets) of the subterms finished so far
    todo = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if node is _JOIN:
            node = todo.pop()
            right = images.pop()
            left = images.pop()
            lflat, loffs = left
            rflat, roffs = right
            if type(node) is Cat:
                flat = lflat + rflat
                d = len(lflat)
                offsets = loffs + tuple([o + d for o in roffs])
            else:
                k = node.i
                p = loffs[k - 1]
                flat = lflat[:p] + rflat + lflat[p + 1 :]
                d = len(rflat) - 1
                offsets = loffs[: k - 1] + tuple([o + p for o in roffs])
                offsets += tuple([o + d for o in loffs[k:]])
            images.append((flat, offsets))
            n = len(flat)
            if 3 * len(lflat) <= 2 * n and (type(node.left) is Cat or type(node.left) is WrapT):
                _setattr(node.left, "_image", left)
            if 3 * len(rflat) <= 2 * n and (type(node.right) is Cat or type(node.right) is WrapT):
                _setattr(node.right, "_image", right)
        elif cls is Cat or cls is WrapT:
            if node._image is None:
                todo += (node, _JOIN, node.right, node.left)
            else:
                images.append(node._image)
        elif cls is Leaf:
            images.append(_stored(node.type, "_image", _leaf_image))
        elif cls is ConstJ:
            images.append(_JJ_IMAGE)
        elif cls is ConstI:
            images.append(_II_IMAGE)
        else:
            raise _not_a_term(node)
    return _FlatConfig(images[0][0])


def equiv(t, s) -> bool:
    """Interconvertibility under the rewrite rules (decided via sharp)."""
    return flatten(sharp(t)) == flatten(sharp(s))


# ---------------------------------------------------------------------------
# canonical terms


def _build_term(items: tuple):
    """Cons-list term of an item sequence, built from its last item."""
    term = ConstI()
    for item in reversed(items):
        if type(item) is Leaf0:
            head = Leaf(item.type)
        elif type(item) is Separator:
            head = ConstJ()
        else:  # an occurrence: its gap fillers wrap its leaf, gap 1 innermost
            head, pos = Leaf(item.type), 1
            for gap in item.gaps:
                filler = _build_term(gap.items)
                head = WrapT(pos, head, filler)
                pos += filler.sort
        term = Cat(head, term)
    return term


def is_canonical(t) -> bool:
    """Is t the canonical term of its sharp image, term_of_config(sharp(t))?

    One pass with an explicit stack, over the shape that _build_term gives:
    a cons-list of Cats ending in II whose heads are JJ, sort-0 leaves, or
    wrap chains (((A +1 f1) +p2 f2) ... +pa fa) with A of sort a, each p the
    previous one plus the previous filler's sort, and every filler canonical.
    """
    todo = [t]
    while todo:
        t = todo.pop()
        while type(t) is Cat:
            head, t = t.left, t.right
            if type(head) is ConstJ or (type(head) is Leaf and head.sort == 0):
                continue
            chain = []
            while type(head) is WrapT:
                chain.append(head)
                head = head.left
            if type(head) is not Leaf or head.sort != len(chain):
                return False
            pos = 1
            for wrap in reversed(chain):
                if wrap.i != pos:
                    return False
                pos += wrap.right.sort
                todo.append(wrap.right)
        if type(t) is not ConstI:
            return False
    return True


def term_of_config(cfg: HyperConfig):
    """The canonical structural term denoting cfg (sharp is its inverse)."""
    return _build_term(cfg.items)


def _leaf_path(t, place: int) -> tuple:
    """The path of t's Leaf or JJ leaf at `place`, counting from 0 left to
    right: on a canonical term, the leaf of its item at that place in
    iter_items order (an occurrence's leaf comes before its gap fillers)."""
    leaves = (path for path, sub in iter_subterms(t) if type(sub) is Leaf or type(sub) is ConstJ)
    return next(islice(leaves, place, None))


def term_of_config_with_addr(cfg: HyperConfig, addr: tuple):
    """Canonical term plus the path of the leaf for the item at addr, found
    by the item's place in flat order; a bad address raises IndexError."""
    item_at(cfg, addr)  # IndexError for a bad address
    addr = tuple(addr)
    place = next(n for n, (a, _) in enumerate(iter_items(cfg)) if a == addr)
    term = _build_term(cfg.items)
    return term, _leaf_path(term, place)


# ---------------------------------------------------------------------------
# normalization


def normalize(t, budget: int = 10000) -> RewriteTrace:
    """Explicit rewrite trace from t to term_of_config(sharp(t)), of at most
    `budget` steps (BudgetError); a budget below 0 is a ValueError."""
    if budget < 0:
        raise ValueError("budget must be at least 0, not %r" % (budget,))
    tr = Tracer(t, budget=budget)
    _canon(tr, ())
    assert is_canonical(tr.term) and flatten(sharp(tr.term)) == flatten(sharp(t))
    return tr.trace()


def _canon(tr: Tracer, path: tuple):
    """Rewrite the subterm at path to its canonical term, in one loop over a
    stack of pending (task, path) pairs; each task reads its subterm when it
    is popped, and pushes its follow-up work in reverse order:

    - canon: any subterm --> its canonical term;
    - cons: a Cat whose right operand is canonical --> a canonical cons-list;
    - cat: a Cat of two canonical cons-lists --> one canonical cons-list;
    - wrap: a wrap of two canonical terms --> a canonical cons-list;
    - chain: push the filler of (chain +i v) down to the gap that holds i.
    """
    todo = [("canon", path)]
    while todo:
        task, path = todo.pop()
        sub = tr.at(path)
        if task == "canon":
            if is_canonical(sub):
                continue
            if type(sub) is Cat:
                todo += (("cons", path), ("canon", path + (1,)))
            elif type(sub) is WrapT:
                todo += (("wrap", path), ("canon", path + (0,)), ("canon", path + (1,)))
            elif type(sub) is Leaf or type(sub) is ConstJ:
                if type(sub) is Leaf and sub.sort > 0:
                    _pad_leaf_gaps(tr, path)
                tr.emit("UnitI-R-add", path)
            else:
                raise _not_a_term(sub)
        elif task == "cons":
            x = sub.left
            if type(x) is ConstI:
                tr.emit("UnitI-L-drop", path)
            elif type(x) is Leaf and x.sort > 0:
                _pad_leaf_gaps(tr, path + (0,))
            elif type(x) is Cat:
                tr.emit("AsscC-fwd", path)
                todo += (("cons", path), ("cons", path + (1,)))
            elif type(x) is WrapT:  # canonicalize it standalone, then merge
                todo += (("cat", path), ("canon", path + (0,)))
        elif task == "cat":
            if type(sub.left) is ConstI:
                tr.emit("UnitI-L-drop", path)
            else:
                tr.emit("AsscC-fwd", path)
                todo.append(("cat", path + (1,)))
        elif task == "wrap":
            head = sub.left.left
            if type(head) is ConstJ and sub.i == 1:
                tr.emit("SW-left-bwd", path)
                todo.append(("cat", path))
            elif sub.i > head.sort:
                tr.emit("SW-right-fwd", path + (0,))
                tr.emit("AsscD2", path)
                tr.emit("SW-right-bwd", path)
                todo.append(("wrap", path + (1,)))
            else:  # the filler lands inside the head occurrence's wrap chain
                tr.emit("SW-left-fwd", path + (0,))
                tr.emit("AsscD2", path)
                tr.emit("SW-left-bwd", path)
                todo.append(("chain", path + (0,)))
        elif sub.i >= sub.left.i:  # chain
            tr.emit("AsscD2", path)
            todo.append(("wrap", path + (1,)))
        else:
            tr.emit("MixPerm2-fwd", path)
            todo.append(("chain", path + (0,)))


def _pad_leaf_gaps(tr: Tracer, path: tuple):
    """Leaf of sort a >= 1 --> its gap-padded wrap chain ((A +1 (JJ+II)) ...)."""
    a = sort_of_type(tr.at(path).type)
    for m in range(1, a + 1):
        tr.emit("UnitJ-i-add", path, i=m)
    for m in range(1, a + 1):
        tr.emit("UnitI-R-add", path + (0,) * (a - m) + (1,))


# ---------------------------------------------------------------------------
# extraction


def _marked_image(t, at: tuple):
    """(marker, image): the sharp image of t with the type leaf at `at`
    replaced by a marker atom of its sort, which no parsed atom equals."""
    try:
        sub = subterm_at(t, at)
    except IndexError:  # the path descends below a leaf
        sub = None
    if not isinstance(sub, Leaf):
        raise ExtractionError("path %r does not address a type leaf" % (at,))
    marker = Atom("\x00extract", sub.sort)
    return marker, sharp(replace_at(t, at, Leaf(marker)))


def _extract_info(t, at: tuple):
    """(slot i, place) when the leaf at `at` is visible, read off the flat
    marked image: i is 1 plus the separators before the marker, place the
    number of items (Leaf0, SEP, SegTok 0) before it."""
    marker, image = _marked_image(t, at)
    shape = flatten(figure(marker))
    toks = flatten(image)
    pos = toks.index(shape[0])
    if toks[pos : pos + len(shape)] != shape:  # a gap holds more than its separator
        return None
    before = toks[:pos]
    return before.count(SEP) + 1, sum(type(tok) is not SegTok or tok.idx == 0 for tok in before)


def extractable(t, at: tuple) -> Optional[int]:
    """The separator index the leaf at `at` occupies, when it is visible.

    Visible means: in sharp(t) the leaf's occurrence appears as exactly the
    figure of its type (each gap a single separator).  Sort-0 leaves are
    always visible.
    """
    info = _extract_info(t, at)
    return info[0] if info else None


class _Degenerate(Exception):
    pass


def _pull(tr: Tracer, gpath: tuple, at: tuple, rng) -> int:
    """Bubble the leaf at gpath+at up to a final wrap at gpath; returns its index."""
    node = tr.at(gpath)
    if at == ():
        tr.emit("UnitJ-L-add", gpath)
        return 1
    if isinstance(node, WrapT) and at == (1,):
        return node.i
    if rng is not None and rng.random() < 0.3:
        _canon(tr, gpath + (1 - at[0],))
    d, rest = at[0], at[1:]
    if isinstance(node, Cat) and d == 0:
        k = _pull(tr, gpath + (0,), rest, rng)
        tr.emit("SW-left-fwd", gpath)
        tr.emit("AsscD1", gpath)
        tr.emit("SW-left-bwd", gpath + (0,))
        return k
    if isinstance(node, Cat) and d == 1:
        s = sort_of_term(node.left)
        k = _pull(tr, gpath + (1,), rest, rng)
        tr.emit("SW-right-fwd", gpath)
        tr.emit("AsscD1", gpath)
        tr.emit("SW-right-bwd", gpath + (0,))
        return s + k
    if isinstance(node, WrapT) and d == 1:
        k = _pull(tr, gpath + (1,), rest, rng)
        i = tr.at(gpath).i
        tr.emit("AsscD1", gpath)
        return i + k - 1
    if isinstance(node, WrapT) and d == 0:
        k = _pull(tr, gpath + (0,), rest, rng)
        cur = tr.at(gpath)
        i, inner, right = cur.i, cur.left, cur.right
        a = sort_of_term(inner.right)
        if isinstance(right, ConstJ):
            tr.emit("UnitJ-i-drop", gpath)
            return k
        cls = classify(k, a, i)
        if cls == "P1":
            tr.emit("MixPerm1-fwd", gpath)
            return k
        if cls == "P2":
            r = sort_of_term(right)
            tr.emit("MixPerm2-fwd", gpath)
            return k + r - 1
        # overlap: only legal when the wrapped material is a bare separator
        if flatten(sharp(right)) != (SEP,):
            raise _Degenerate()
        _canon(tr, gpath + (1,))
        tr.emit("UnitI-R-drop", gpath + (1,))
        tr.emit("UnitJ-i-drop", gpath)
        return k
    raise IndexError("path %r does not address a leaf" % (at,))


def extract(t, at: tuple, rng: Optional[random.Random] = None):
    """Pull the leaf at `at` out of t as a final wrap.

    Returns (rest, i, trace) with trace: t ~* (rest +i leaf) where the leaf
    fills separator slot i of sharp(rest).  Raises ExtractionError when the
    occurrence is not visible in sharp(t).
    """
    info = _extract_info(t, at)
    if info is None:
        raise ExtractionError("occurrence at %r is not visible for extraction" % (at,))
    want_i, place = info
    leaf = subterm_at(t, at)
    tr = Tracer(t)
    try:
        got = _pull(tr, (), at, rng)
    except _Degenerate:  # pull the leaf of its item out of the canonical term
        tr = Tracer(t)
        _canon(tr, ())
        assert is_canonical(tr.term)
        got = _pull(tr, (), _leaf_path(tr.term, place), rng)
    final = tr.term
    assert isinstance(final, WrapT) and final.right == leaf and final.i == got
    assert got == want_i, "extraction index %d disagrees with sharp (%d)" % (got, want_i)
    return final.left, got, tr.trace()


# ---------------------------------------------------------------------------
# serialization


def trace_to_obj(trace: RewriteTrace) -> dict:
    return {
        "start": str(trace.start),
        "steps": [
            {
                "rule": step.app.rule,
                "path": list(step.app.at),
                "params": step.app.params_dict(),
                "result": str(step.result),
            }
            for step in trace.steps
        ],
    }


def trace_from_obj(obj: dict, sig: Signature) -> RewriteTrace:
    """Read a trace back, each step checked against its parsed result and
    given the indices its redex fills.  A field not of its JSON shape
    raises ParseError naming it, and a path step that is not a plain int
    RuleError naming the step."""
    _expect(obj, dict, "a trace")
    cur = start = parse_term(_expect(obj.get("start"), str, "start"), sig)
    steps = []
    for k, step in enumerate(_expect(obj.get("steps"), list, "steps"), 1):
        name = "trace step %d" % k
        step = _expect(step, dict, name)
        at = tuple(_expect(step.get("path"), list, name + ": path"))
        if any(type(d) is not int for d in at):  # true and 1.0 are not path steps
            raise RuleError("%s: path %r is not a list of integers" % (name, step["path"]))
        params = _expect(step.get("params", {}), dict, name + ": params")
        app = RuleApp(_expect(step.get("rule"), str, name + ": rule"), at, tuple(params.items()))
        result = parse_term(_expect(step.get("result"), str, name + ": result"), sig)
        filled = _trace_step(k, cur, app, result)[1]
        steps.append(TraceStep(RuleApp(app.rule, at, tuple(sorted(filled.items()))), result))
        cur = result
    return RewriteTrace(start, tuple(steps))
