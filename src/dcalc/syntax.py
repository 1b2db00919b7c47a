"""Sorted types and hyperconfigurations.

Types are built over a finite signature of sorted atoms together with two
units: I (sort 0, the unit of continuous product) and J (sort 1, the unit of
wrapping).  Every connective has a sort law.  Each type node stores its sort
when it is built, computed from its operands' stored sorts, so
``sort_of_type`` is O(1); the constructors reject operand combinations that
would produce a negative sort or an out-of-range wrap index.  A type also
stores its figure, its segment tokens, its polarity-weighted atom counts and
(a binary one) its hash, but only once they are first asked for, since most
parsed subtypes never become items.  None of these stored values is a
dataclass field, so equality, hashing and printing ignore them.

A hyperconfiguration is a sequence of items: sort-0 type leaves, separators
(written ``[]``), and occurrences of types of sort >= 1, where an occurrence
of a type with sort a carries exactly a gap subconfigurations.  The flat
serialization interleaves the a+1 segments of an occurrence (written
``k:A``) with its gap material; ``flatten`` / ``parse_flat`` convert between
the two views and are mutually inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


class SortError(ValueError):
    """An ill-sorted type, configuration or term construction."""


class ParseError(ValueError):
    """Malformed textual input."""


# ---------------------------------------------------------------------------
# signature


_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*$")


class Signature:
    """Finite map from atom names to sorts (non-negative integers)."""

    def __init__(self, atoms: Optional[dict] = None):
        self.atoms = dict(atoms or {})
        for name, sort in self.atoms.items():
            if not _ATOM_RE.match(name):
                raise ParseError("bad atom name %r" % (name,))
            if not isinstance(sort, int) or sort < 0:
                raise ParseError("bad sort for atom %r" % (name,))

    def sort(self, name: str) -> int:
        if name not in self.atoms:
            raise ParseError("atom %r not declared in signature" % (name,))
        return self.atoms[name]

    @classmethod
    def from_text(cls, text: str) -> "Signature":
        atoms = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("signature line %d: expected 'name<TAB>sort'" % lineno)
            name, sort = parts
            if not _ATOM_RE.match(name):
                raise ParseError("signature line %d: bad atom name %r" % (lineno, name))
            if not sort.isdigit():
                raise ParseError("signature line %d: bad sort %r" % (lineno, sort))
            if name in atoms:
                raise ParseError("signature line %d: duplicate atom %r" % (lineno, name))
            atoms[name] = int(sort)
        return cls(atoms)

    @classmethod
    def from_file(cls, path: str) -> "Signature":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Atom:
    name: str
    sort: int

    def __post_init__(self):
        if self.sort < 0:
            raise SortError("atom %s with negative sort" % self.name)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class UnitI:
    sort = 0

    def __str__(self):
        return "I"


@dataclass(frozen=True)
class UnitJ:
    sort = 1

    def __str__(self):
        return "J"


def _stored_hash(t) -> int:
    """A binary type's hash, the value its dataclass would compute from its
    fields, stored on first use: the search hashes every subgoal's
    succedent, an operand of the one before."""
    h = getattr(t, "_hash", None)
    if h is None:
        k = getattr(t, "k", None)
        h = hash((t.left, t.right) if k is None else (k, t.left, t.right))
        object.__setattr__(t, "_hash", h)
    return h


@dataclass(frozen=True)
class Prod:
    left: "Type"
    right: "Type"
    sort: int = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self):
        object.__setattr__(self, "sort", sort_of_type(self.left) + sort_of_type(self.right))

    def __str__(self):
        return _binop_str(self.left, ".", self.right)


@dataclass(frozen=True)
class Under:
    """left \\ right: consumes left on its left, yields right."""

    left: "Type"
    right: "Type"
    sort: int = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self):
        s = sort_of_type(self.right) - sort_of_type(self.left)
        if s < 0:
            raise SortError("negative sort in %s\\%s" % (self.left, self.right))
        object.__setattr__(self, "sort", s)

    def __str__(self):
        return _binop_str(self.left, "\\", self.right)


@dataclass(frozen=True)
class Over:
    """left / right: yields left given right on its right."""

    left: "Type"
    right: "Type"
    sort: int = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self):
        s = sort_of_type(self.left) - sort_of_type(self.right)
        if s < 0:
            raise SortError("negative sort in %s/%s" % (self.left, self.right))
        object.__setattr__(self, "sort", s)

    def __str__(self):
        return _binop_str(self.left, "/", self.right)


def _wrapped_sort(op: str, k: int, left: "Type") -> int:
    """Sort of the left operand of @k or !k, which k must index."""
    a = sort_of_type(left)
    if a < 1:
        raise SortError("%s%d on sort-0 left operand" % (op, k))
    if not 1 <= k <= a:
        raise SortError("wrap index %d out of range 1..%d" % (k, a))
    return a


@dataclass(frozen=True)
class DProd:
    """left @k right: wrap left around right at gap k."""

    k: int
    left: "Type"
    right: "Type"
    sort: int = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self):
        a = _wrapped_sort("@", self.k, self.left)
        object.__setattr__(self, "sort", a + sort_of_type(self.right) - 1)

    def __str__(self):
        return _binop_str(self.left, "@%d" % self.k, self.right)


@dataclass(frozen=True)
class DDown:
    """left !k right: infix that wraps at gap k of left to yield right."""

    k: int
    left: "Type"
    right: "Type"
    sort: int = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self):
        a = _wrapped_sort("!", self.k, self.left)
        s = sort_of_type(self.right) + 1 - a
        if s < 0:
            raise SortError("negative sort in %s" % (self,))
        object.__setattr__(self, "sort", s)

    def __str__(self):
        return _binop_str(self.left, "!%d" % self.k, self.right)


@dataclass(frozen=True)
class DUp:
    """left ^k right: circumfix that yields left when wrapped around right."""

    k: int
    left: "Type"
    right: "Type"
    sort: int = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self):
        s = sort_of_type(self.left) + 1 - sort_of_type(self.right)
        if s < 1:
            raise SortError("non-positive sort in %s" % (self,))
        if not 1 <= self.k <= s:
            raise SortError("wrap index %d out of range 1..%d" % (self.k, s))
        object.__setattr__(self, "sort", s)

    def __str__(self):
        return _binop_str(self.left, "^%d" % self.k, self.right)


Type = Union[Atom, UnitI, UnitJ, Prod, Under, Over, DProd, DDown, DUp]
_TYPE_CLASSES = frozenset(Type.__args__)


def sort_of_type(t: Type) -> int:
    """Sort of a type: each type stores its sort when it is built, and its
    constructor raises SortError on an ill-sorted construction."""
    if type(t) in _TYPE_CLASSES:
        return t.sort
    raise TypeError("not a type: %r" % (t,))


def _binop_str(left: Type, op: str, right: Type) -> str:
    ls = str(left)
    rs = str(right)
    if not isinstance(left, (Atom, UnitI, UnitJ)):
        ls = "(" + ls + ")"
    if not isinstance(right, (Atom, UnitI, UnitJ)):
        rs = "(" + rs + ")"
    return ls + op + rs


# ---------------------------------------------------------------------------
# hyperconfigurations


@dataclass(frozen=True)
class Separator:
    def __str__(self):
        return "[]"


SEP = Separator()


@dataclass(frozen=True)
class Leaf0:
    type: Type

    def __post_init__(self):
        if sort_of_type(self.type) != 0:
            raise SortError("leaf item of nonzero sort: %s" % (self.type,))

    def __str__(self):
        return str(self.type)


@dataclass(frozen=True)
class Occurrence:
    type: Type
    gaps: tuple

    def __post_init__(self):
        a = sort_of_type(self.type)
        if a < 1:
            raise SortError("occurrence of sort-0 type %s" % (self.type,))
        if len(self.gaps) != a:
            raise SortError(
                "occurrence of %s needs %d gaps, got %d" % (self.type, a, len(self.gaps))
            )


Item = Union[Leaf0, Separator, Occurrence]


@dataclass(frozen=True)
class HyperConfig:
    items: tuple = ()

    def __str__(self):
        return config_str(self)


EMPTY = HyperConfig(())


@dataclass(frozen=True)
class SegTok:
    """Flat-form segment token ``idx:type`` of an occurrence."""

    type: Type
    idx: int

    def __str__(self):
        return "%d:%s" % (self.idx, self.type)


def sort_of_config(cfg: HyperConfig) -> int:
    total = 0
    for item in cfg.items:
        if isinstance(item, Separator):
            total += 1
        elif isinstance(item, Occurrence):
            total += sum(sort_of_config(g) for g in item.gaps)
    return total


_GAP = HyperConfig((SEP,))


def _stored(obj, name: str, build):
    """The value the immutable obj (a type, a derivation node) stores under
    name, built by build(obj) the first time it is asked for; not a
    dataclass field, so ==, hash and repr ignore it."""
    value = getattr(obj, name, None)
    if value is None:
        value = build(obj)
        object.__setattr__(obj, name, value)
    return value


def _build_figure(t: Type) -> HyperConfig:
    a = sort_of_type(t)
    if a == 0:
        return HyperConfig((Leaf0(t),))
    return HyperConfig((Occurrence(t, (_GAP,) * a),))


def figure(t: Type) -> HyperConfig:
    """The figure of a type: the canonical single-occurrence configuration.
    Each type builds its figure once and stores it, so every call returns
    the same object."""
    return _stored(t, "_figure", _build_figure)


# the sign each binary connective gives its (left, right) operand's atoms:
# results count with the type's own sign, arguments of the implications
# with the opposite one
_OPERAND_SIGNS = {
    Prod: (1, 1),
    DProd: (1, 1),
    Under: (-1, 1),
    DDown: (-1, 1),
    Over: (1, -1),
    DUp: (1, -1),
}


def _build_counts(t: Type) -> dict:
    counts = {}
    stack = [(t, 1)]
    while stack:
        u, sign = stack.pop()
        stored = getattr(u, "_counts", None)
        if stored is not None:
            for name, n in stored.items():
                counts[name] = counts.get(name, 0) + sign * n
        elif type(u) is Atom:
            counts[u.name] = counts.get(u.name, 0) + sign
        elif type(u) in _OPERAND_SIGNS:
            left, right = _OPERAND_SIGNS[type(u)]
            stack += ((u.left, left * sign), (u.right, right * sign))
    return {name: n for name, n in counts.items() if n}


def atom_counts(t: Type) -> dict:
    """Each atom's polarity-weighted count in t, atoms that cancel left out:
    results count +1, the arguments of the implications -1, units nothing.
    Each type stores its counts on first use; the map refers to no type.
    Callers must not change it."""
    return _stored(t, "_counts", _build_counts)


def _build_segments(t: Type) -> tuple:
    return tuple(SegTok(t, i) for i in range(sort_of_type(t) + 1))


def figure_items(t: Type, gaps: tuple) -> tuple:
    """Items for one occurrence of t carrying the given gap fillers."""
    if sort_of_type(t) == 0:
        if gaps:
            raise SortError("sort-0 occurrence cannot carry gaps")
        return figure(t).items
    return (Occurrence(t, tuple(gaps)),)


def flatten(cfg: HyperConfig) -> tuple:
    """Flat token sequence: Leaf0 and Separator items plus SegTok markers.
    The segment tokens are the ones each type stores, so two flattenings
    share their SegTok objects."""
    out = []
    items = iter(cfg.items)
    above = []  # the suspended iterators of the enclosing levels
    while True:
        for item in items:
            if type(item) is Occurrence:
                # the a+1 segment tokens SegTok(t, 0..a), stored on the type
                segments = _stored(item.type, "_segments", _build_segments)
                out.append(segments[0])
                rest = []  # each gap's items, then the segment token closing it
                for i, gap in enumerate(item.gaps, 1):
                    rest += gap.items
                    rest.append(segments[i])
                above.append(items)
                items = iter(rest)
                break
            out.append(item)
        else:
            if not above:
                return tuple(out)
            items = above.pop()


def parse_flat(tokens) -> HyperConfig:
    """Rebuild the tree form from a flat token sequence (inverse of flatten)."""
    items, _ = _reassemble(tuple(tokens), 0, None)  # without a stop, it reads every token
    return HyperConfig(tuple(items))


def _reassemble(tokens, pos, stop):
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
                sub, pos = _reassemble(tokens, pos, (tok.type, g))  # stops at segment g
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


def config_str(cfg: HyperConfig) -> str:
    """Canonical flat serialization; the empty configuration prints Lambda."""
    toks = flatten(cfg)
    if not toks:
        return "Lambda"
    return ",".join(str(tok) for tok in toks)


# ---------------------------------------------------------------------------
# wrapping


def wrap_items(items: tuple, k: int, filler_items: tuple) -> tuple:
    """Items of wrap_at(HyperConfig(items), k, HyperConfig(filler_items)).

    Walks the items in flat order up to the k-th separator, then rebuilds
    only the occurrences on the path to it; every other item is shared with
    the input.  Raises SortError when there is no k-th separator.
    """
    above = []  # (items, index, gap) of each occurrence the walk is inside
    i = 0
    seen = 0
    while True:
        if i < len(items):
            item = items[i]
            if type(item) is Separator:
                seen += 1
                if seen == k:
                    return _rebuild(above, items[:i] + filler_items + items[i + 1 :])
            elif type(item) is Occurrence:
                above.append((items, i, 0))
                items, i = item.gaps[0].items, 0
                continue
            i += 1
        elif above:
            items, i, g = above.pop()
            gaps = items[i].gaps
            if g + 1 < len(gaps):
                above.append((items, i, g + 1))
                items, i = gaps[g + 1].items, 0
            else:
                i += 1
        else:
            raise SortError("wrap index %d out of range 1..%d" % (k, seen))


def wrap_at(cfg: HyperConfig, k: int, filler: HyperConfig) -> HyperConfig:
    """Replace the k-th separator (1-based, flat order) with filler's items.

    Only the occurrences on the path to that separator are rebuilt; all
    other items of cfg are shared with the result.
    """
    return HyperConfig(wrap_items(cfg.items, k, filler.items))


def generalized_wrap(cfg: HyperConfig, fillers) -> HyperConfig:
    """Simultaneously fill all separators of cfg, left to right."""
    fillers = tuple(fillers)
    if len(fillers) != sort_of_config(cfg):
        raise SortError(
            "generalized wrap needs %d fillers, got %d" % (sort_of_config(cfg), len(fillers))
        )
    out = cfg
    for k in range(len(fillers), 0, -1):
        out = wrap_at(out, k, fillers[k - 1])
    return out


# ---------------------------------------------------------------------------
# addressing
#
# An item address alternates item indices and gap indices, ending on an item
# index: (i0, g0, i1, g1, ..., iN).  The even-length prefix is the "level"
# address of the configuration that directly contains the item.  _resolve is
# the one place that walks and bounds addresses and ranges.


def iter_items(cfg: HyperConfig, prefix: tuple = ()) -> Iterator:
    """Yield (address, item) pairs in flat (left-to-right) order."""
    for i, item in enumerate(cfg.items):
        yield prefix + (i,), item
        if isinstance(item, Occurrence):
            for g, gap in enumerate(item.gaps):
                yield from iter_items(gap, prefix + (i, g))


def _resolve(cfg: HyperConfig, level: tuple, start: int = 0, end: int = 0):
    """(subconfiguration at an even-length level address, spine above it).

    The spine lists (items, index, gap) for each occurrence the address
    steps into, outermost first.  Raises IndexError on an odd-length
    address, a negative or out-of-range index, a step through a
    non-occurrence, or when items[start:end] is not a range of the result.
    """
    spine = []
    if level:  # the top level, the common case, skips the walk
        for n in range(0, len(level), 2):
            i, g = level[n], level[n + 1]  # IndexError at an odd length
            item = cfg.items[i] if 0 <= i < len(cfg.items) else None
            if type(item) is not Occurrence or not 0 <= g < len(item.gaps):
                raise IndexError("bad level address %r" % (level,))
            spine.append((cfg.items, i, g))
            cfg = item.gaps[g]
    if not 0 <= start <= end <= len(cfg.items):
        raise IndexError("bad range %r:%r" % (start, end))
    return cfg, spine


def _rebuild(spine, out: tuple) -> tuple:
    """Top-level items once the configuration at the spine's end holds `out`;
    only the occurrences on the spine are rebuilt."""
    for items, i, g in reversed(spine):
        occ = items[i]
        gaps = occ.gaps[:g] + (HyperConfig(out),) + occ.gaps[g + 1 :]
        out = items[:i] + (Occurrence(occ.type, gaps),) + items[i + 1 :]
    return out


def config_at(cfg: HyperConfig, level: tuple) -> HyperConfig:
    """The subconfiguration at an even-length level address."""
    return _resolve(cfg, level)[0]


def item_at(cfg: HyperConfig, addr: tuple) -> Item:
    """The item at an odd-length item address."""
    return _resolve(cfg, addr[:-1], addr[-1], addr[-1] + 1)[0].items[addr[-1]]


def replace_range(cfg: HyperConfig, level: tuple, start: int, end: int, new_items) -> HyperConfig:
    """Replace items[start:end] of the configuration at `level` by new_items."""
    sub, spine = _resolve(cfg, level, start, end)
    return HyperConfig(_rebuild(spine, sub.items[:start] + tuple(new_items) + sub.items[end:]))


def splice_item(cfg: HyperConfig, addr: tuple, new_items) -> HyperConfig:
    """Replace the single item at addr by a sequence of items."""
    return replace_range(cfg, addr[:-1], addr[-1], addr[-1] + 1, new_items)


def sub_slice(cfg: HyperConfig, level: tuple, start: int, end: int) -> HyperConfig:
    """The items [start:end) of the configuration at `level`."""
    return HyperConfig(_resolve(cfg, level, start, end)[0].items[start:end])


def sep_index_at(cfg: HyperConfig, addr: tuple) -> int:
    """1-based flat index of the separator item at addr."""
    n = 0
    for a, item in iter_items(cfg):
        if isinstance(item, Separator):
            n += 1
            if a == addr:
                return n
    raise IndexError("no separator at %r" % (addr,))


# ---------------------------------------------------------------------------
# text: scanner


# named alternatives, tried left to right: the first that matches wins, and
# m.lastgroup names it
_TOKEN_RE = re.compile(
    r"(?P<WS>[ \t]+)"
    r"|(?P<ARROW>->)"
    r"|(?P<DARROW>=>)"
    r"|(?P<SEPTOK>\[\])"
    r"|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<KOP>[@!^][0-9]+)"
    r"|(?P<PLUS>\+[0-9]*)"
    r"|(?P<PUNCT>[\\/.(),;:{}])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r at %d" % (text[pos], pos))
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Scanner:
    """The tokens of a whole text, all scanned when it is built."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None):
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


# ---------------------------------------------------------------------------
# text: types


def _parse_type_operand(sc: _Scanner, sig: Signature) -> Type:
    kind, value, _ = sc.peek()
    if kind == "PUNCT" and value == "(":
        sc.next()
        t = _parse_type_expr(sc, sig)
        sc.expect("PUNCT", ")")
        return t
    if kind == "NAME":
        sc.next()
        if value == "I":
            return UnitI()
        if value == "J":
            return UnitJ()
        if not _ATOM_RE.match(value):
            raise ParseError("bad atom name %r" % (value,))
        return Atom(value, sig.sort(value))
    sc.error("expected a type")


def _peek_binop(sc: _Scanner):
    kind, value, _ = sc.peek()
    if kind == "PUNCT" and value in ("\\", "/", "."):
        return value
    if kind == "KOP":
        return value
    return None


def _parse_type_expr(sc: _Scanner, sig: Signature) -> Type:
    left = _parse_type_operand(sc, sig)
    op = _peek_binop(sc)
    if op is None:
        return left
    sc.next()
    right = _parse_type_operand(sc, sig)
    if _peek_binop(sc) is not None:
        sc.error("operator chains must be parenthesized")
    try:
        if op == "\\":
            return Under(left, right)
        if op == "/":
            return Over(left, right)
        if op == ".":
            return Prod(left, right)
        k = int(op[1:])
        if op[0] == "@":
            return DProd(k, left, right)
        if op[0] == "!":
            return DDown(k, left, right)
        return DUp(k, left, right)
    except SortError as exc:
        raise ParseError(str(exc)) from exc


def _parse_whole(parse, text: str, sig: Signature, what: str):
    """parse(scanner, sig) over text, which it must read to the end."""
    sc = _Scanner(text)
    value = parse(sc, sig)
    if not sc.at_end():
        sc.error("trailing input after " + what)
    return value


def parse_type(text: str, sig: Signature) -> Type:
    return _parse_whole(_parse_type_expr, text, sig, "type")


# ---------------------------------------------------------------------------
# text: configurations


def _parse_config_entry(sc: _Scanner, sig: Signature):
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


def _parse_config_body(sc: _Scanner, sig: Signature) -> HyperConfig:
    kind, value, _ = sc.peek()
    if kind == "EOF":
        return EMPTY
    if kind == "NAME" and value == "Lambda":
        sc.next()
        return EMPTY
    raw = [_parse_config_entry(sc, sig)]
    while sc.peek()[:2] == ("PUNCT", ","):
        sc.next()
        raw.append(_parse_config_entry(sc, sig))
    return parse_flat(raw)


def parse_config(text: str, sig: Signature) -> HyperConfig:
    return _parse_whole(_parse_config_body, text, sig, "configuration")
