"""Hypersequent calculus over configurations, without structural rules.

A sequent pairs a hyperconfiguration with a succedent type of equal sort.
Every connective has a left and a right rule; the left rules for the
implications abstract a region of the antecedent into the gaps of the
premise ("chunks"), which is where all the combinatorics of discontinuity
lives.  The ``RULES`` table is the single source of truth for the rules:
each row names the side and the connective a rule acts on, how its
candidate parameters are generated and how its premises are built.
Enumeration, proof search and checking all read it.  Cut is supported by
the checker but never used in search.  Every rule keeps each atom's
polarity-weighted count equal on both sides, so the search drops a
subgoal that breaks this count invariant (``_balanced``) without trying a
rule; it finds what an unpruned search finds.  There is one search,
``prove_all``; ``prove`` is its first derivation (``limit=1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .derivation import Derivation, first_violation, from_obj
from .derivation import derivation_latex, derivation_text, derivation_to_obj  # noqa: F401 (re-exported)
from .syntax import (
    EMPTY,
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
    SEP,
    SegTok,
    Separator,
    Signature,
    SortError,
    Type,
    Under,
    UnitI,
    UnitJ,
    _parse_config_body,
    _parse_type_expr,
    _Scanner,
    config_at,
    config_str,
    figure,
    figure_items,
    flatten,
    generalized_wrap,
    item_at,
    iter_items,
    replace_range,
    sep_index_at,
    sort_of_config,
    sort_of_type,
    splice_item,
    sub_slice,
    wrap_at,
)

HDerivation = Derivation


class InstanceError(ValueError):
    """A rule instance whose parameters do not fit the sequent."""


@dataclass(frozen=True)
class HSequent:
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


def parse_hsequent(text: str, sig: Signature) -> HSequent:
    sc = _Scanner(text)
    cfg = _parse_config_body(sc, sig)
    sc.expect("DARROW")
    t = _parse_type_expr(sc, sig)
    if not sc.at_end():
        sc.error("trailing input after sequent")
    try:
        return HSequent(cfg, t)
    except SortError as exc:
        raise ParseError(str(exc)) from exc


def derivation_from_obj(obj: dict, sig: Signature) -> HDerivation:
    return from_obj(obj, sig, parse_hsequent)


# ---------------------------------------------------------------------------
# region abstraction
#
# A chunk spec is (level, start, end) relative to the abstracted region:
# the items [start:end) of the subconfiguration at the even-length `level`
# address become one gap filler and are replaced by a separator.  Specs are
# listed in flat order: each spec's end address level + (end,) is at most the
# next spec's start address level + (start,), compared as tuples, which also
# rules out overlapping chunks and chunks inside another chunk.  DownL's
# specs address one region, the items [mstart, mend) around the principal,
# whose place is the argument's k-th separator: k - 1 chunks come before it.
#
# Each guard has one home.  syntax's sub_slice and replace_range bound every
# region, level and range (IndexError); apply_chunks checks the flat order;
# the premises' data types check the sorts: the argument premise's HSequent
# that the abstraction has the argument's sort, and the rebuilt occurrence's
# gap count that there is one chunk per gap of the argument.


def apply_chunks(region: HyperConfig, specs):
    """Replace each chunk of the region by a separator.

    Returns (abstracted region, tuple of chunk contents in flat order).
    """
    specs = [(tuple(level), start, end) for level, start, end in specs]
    for (level, _, end), (after, start, _) in zip(specs, specs[1:]):
        if level + (end,) > after + (start,):
            raise InstanceError("chunks not in flat order")
    contents = tuple(sub_slice(region, *spec) for spec in specs)
    for spec in reversed(specs):
        region = replace_range(region, *spec, (SEP,))
    return region, contents


def enum_chunkings(region: HyperConfig, count: int):
    """All ways to abstract the region into `count` gaps.

    Every separator of the region must fall inside a chunk; chunks are
    contiguous item ranges at any depth, zero-width ranges allowed.
    """

    def gen(items, lvl, i, r):
        if i == len(items):
            yield (), r
        if r >= 1:
            for e in range(i, len(items) + 1):
                for rest, rr in gen(items, lvl, e, r - 1):
                    yield ((lvl, i, e),) + rest, rr
        if i < len(items):
            item = items[i]
            if isinstance(item, Leaf0):
                yield from gen(items, lvl, i + 1, r)
            elif isinstance(item, Occurrence):
                for inner, r1 in gen_gaps(item, lvl + (i,), 0, r):
                    for rest, r2 in gen(items, lvl, i + 1, r1):
                        yield inner + rest, r2
            # a bare separator can only be consumed by a chunk

    def gen_gaps(occ, base, g, r):
        if g == len(occ.gaps):
            yield (), r
            return
        for first, r1 in gen(occ.gaps[g].items, base + (g,), 0, r):
            for rest, r2 in gen_gaps(occ, base, g + 1, r1):
                yield first + rest, r2

    for specs, left in gen(region.items, (), 0, count):
        if left == 0:
            yield specs


def _shift_specs(specs, offset: int):
    out = []
    for lvl, start, end in specs:
        if lvl == ():
            out.append(((), start + offset, end + offset))
        else:
            out.append(((lvl[0] + offset,) + lvl[1:], start, end))
    return tuple(out)


# ---------------------------------------------------------------------------
# rule instances
#
# The RULES table at the end of this section gives each rule the side it
# acts on ("R": the succedent; "L": the antecedent item at params["at"]), the
# connective the type there must have, and two functions.  The candidates
# function yields parameter dicts and is called only where the side and the
# connective fit: with (ant, succ) for a right rule, (ant, addr, item) for a
# left rule.  The premises function, called with (ant, succ, params) or
# (ant, succ, addr, item, params), builds the premise sequents and raises
# InstanceError when the rest of the instance does not fit.


def _item_gaps(item) -> tuple:
    return item.gaps if isinstance(item, Occurrence) else ()


# right rules: candidate parameters


def _once(ant, succ):
    return ({},)


def _index(ant, succ):
    return ({"k": succ.k},)


def _splits(ant, succ):
    want = sort_of_type(succ.left)
    total = 0
    for split in range(len(ant.items) + 1):
        if total == want:
            yield {"split": split}
        if split < len(ant.items):
            item = ant.items[split]
            if isinstance(item, Separator):
                total += 1
            elif isinstance(item, Occurrence):
                total += sum(sort_of_config(g) for g in item.gaps)


def _levels(cfg: HyperConfig):
    yield ()
    for addr, item in iter_items(cfg):
        if isinstance(item, Occurrence):
            for g in range(len(item.gaps)):
                yield addr + (g,)


def _excisions(ant, succ):
    want = sort_of_type(succ.right)
    for level in _levels(ant):
        items = config_at(ant, level).items
        for start in range(len(items) + 1):
            for end in range(start, len(items) + 1):
                if sort_of_config(HyperConfig(items[start:end])) == want:
                    yield {"excise": (level, start, end)}


# right rules: premises


def _axiom(want):
    """Premise function of an axiom, which fits when the antecedent is
    want(succ); mseq's rule table shares it and calls it without params."""

    def premises(ant, succ, params=None):
        if ant != want(succ):
            # constant text: Id fails at almost every subgoal of a search
            raise InstanceError("the antecedent does not fit the axiom")
        return ()

    return premises


def _under_r(ant, succ, params):
    return (HSequent(HyperConfig(figure(succ.left).items + ant.items), succ.right),)


def _over_r(ant, succ, params):
    return (HSequent(HyperConfig(ant.items + figure(succ.right).items), succ.left),)


def _check_index(succ, params):
    if params.get("k", succ.k) != succ.k:
        raise InstanceError("the index must match the succedent's")


def _down_r(ant, succ, params):
    _check_index(succ, params)
    return (HSequent(wrap_at(figure(succ.left), succ.k, ant), succ.right),)


def _up_r(ant, succ, params):
    _check_index(succ, params)
    return (HSequent(wrap_at(ant, succ.k, figure(succ.right)), succ.left),)


def _prod_r(ant, succ, params):
    split = params["split"]
    return (
        HSequent(sub_slice(ant, (), 0, split), succ.left),
        HSequent(sub_slice(ant, (), split, len(ant.items)), succ.right),
    )


def _dprod_r(ant, succ, params):
    main, (slice_cfg,) = apply_chunks(ant, (params["excise"],))
    level, start, _ = params["excise"]
    if sep_index_at(main, tuple(level) + (start,)) != succ.k:
        raise InstanceError("excised slice is not at gap %d" % succ.k)
    return (HSequent(main, succ.left), HSequent(slice_cfg, succ.right))


# left rules: candidate parameters


def _principal(ant, addr, item):
    return ({"at": addr},)


def _left_regions(ant, addr, item):
    level, p = addr[:-1], addr[-1]
    count = sort_of_type(item.type.left)
    for q in range(p, -1, -1):
        for specs in enum_chunkings(sub_slice(ant, level, q, p), count):
            yield {"at": addr, "mstart": q, "chunks": specs}


def _right_regions(ant, addr, item):
    level, p = addr[:-1], addr[-1]
    count = sort_of_type(item.type.right)
    for r in range(p + 1, len(config_at(ant, level).items) + 1):
        for specs in enum_chunkings(sub_slice(ant, level, p + 1, r), count):
            yield {"at": addr, "mend": r, "chunks": specs}


def _gap_regions(ant, addr, item):
    t = item.type
    for specs in enum_chunkings(item.gaps[t.k - 1], sort_of_type(t.right)):
        yield {"at": addr, "chunks": specs}


def _infix_regions(ant, addr, item):
    t = item.type
    level, p = addr[:-1], addr[-1]
    a = sort_of_type(t.left)
    n = len(config_at(ant, level).items)
    for q in range(p, -1, -1):
        for lspecs in enum_chunkings(sub_slice(ant, level, q, p), t.k - 1):
            for r in range(p + 1, n + 1):
                for rspecs in enum_chunkings(sub_slice(ant, level, p + 1, r), a - t.k):
                    chunks = lspecs + _shift_specs(rspecs, p - q + 1)
                    yield {"at": addr, "mstart": q, "mend": r, "chunks": chunks}


# left rules: premises


def _il(ant, succ, addr, item, params):
    return (HSequent(splice_item(ant, addr, ()), succ),)


def _jl(ant, succ, addr, item, params):
    return (HSequent(splice_item(ant, addr, item.gaps[0].items), succ),)


def _prod_l(ant, succ, addr, item, params):
    t = item.type
    a = sort_of_type(t.left)
    gaps = _item_gaps(item)
    new = figure_items(t.left, gaps[:a]) + figure_items(t.right, gaps[a:])
    return (HSequent(splice_item(ant, addr, new), succ),)


def _dprod_l(ant, succ, addr, item, params):
    t = item.type
    b = sort_of_type(t.right)
    gaps = _item_gaps(item)
    k = t.k
    inner = HyperConfig(figure_items(t.right, gaps[k - 1 : k - 1 + b]))
    new_gaps = gaps[: k - 1] + (inner,) + gaps[k - 1 + b :]
    return (HSequent(splice_item(ant, addr, figure_items(t.left, new_gaps)), succ),)


def _under_l(ant, succ, addr, item, params):
    t = item.type
    level, p = addr[:-1], addr[-1]
    q = params["mstart"]
    abstracted, contents = apply_chunks(sub_slice(ant, level, q, p), params["chunks"])
    new = figure_items(t.right, contents + _item_gaps(item))
    return (
        HSequent(abstracted, t.left),
        HSequent(replace_range(ant, level, q, p + 1, new), succ),
    )


def _over_l(ant, succ, addr, item, params):
    t = item.type
    level, p = addr[:-1], addr[-1]
    r = params["mend"]
    abstracted, contents = apply_chunks(sub_slice(ant, level, p + 1, r), params["chunks"])
    new = figure_items(t.left, _item_gaps(item) + contents)
    return (
        HSequent(abstracted, t.right),
        HSequent(replace_range(ant, level, p, r, new), succ),
    )


def _up_l(ant, succ, addr, item, params):
    t = item.type
    abstracted, contents = apply_chunks(item.gaps[t.k - 1], params["chunks"])
    new_gaps = item.gaps[: t.k - 1] + contents + item.gaps[t.k :]
    return (
        HSequent(abstracted, t.right),
        HSequent(splice_item(ant, addr, figure_items(t.left, new_gaps)), succ),
    )


def _down_l(ant, succ, addr, item, params):
    t = item.type
    level, p = addr[:-1], addr[-1]
    q, r = params["mstart"], params["mend"]
    # the principal's place is a chunk of its own, listed after the first
    # k - 1 chunks (or all, if fewer), and its content gives way to the
    # principal's gaps; the sort and gap count checks make it the k-th
    place = ((), p - q, p - q + 1)
    region = replace_range(sub_slice(ant, level, q, r), *place, (SEP,))
    chunks = tuple(params["chunks"])
    n = min(len(chunks), t.k - 1)
    abstracted, contents = apply_chunks(region, chunks[:n] + (place,) + chunks[n:])
    new = figure_items(t.right, contents[:n] + _item_gaps(item) + contents[n + 1 :])
    return (
        HSequent(abstracted, t.left),
        HSequent(replace_range(ant, level, q, r, new), succ),
    )


# rule: (side, connective, candidate parameters, premises), in search order;
# Id's connective is `object` because it applies to a succedent of any type
RULES = {
    "Id": ("R", object, _once, _axiom(figure)),
    "IR": ("R", UnitI, _once, _axiom(lambda succ: EMPTY)),
    "JR": ("R", UnitJ, _once, _axiom(lambda succ: HyperConfig((SEP,)))),
    "UnderR": ("R", Under, _once, _under_r),
    "OverR": ("R", Over, _once, _over_r),
    "DownR": ("R", DDown, _index, _down_r),
    "UpR": ("R", DUp, _index, _up_r),
    "ProdR": ("R", Prod, _splits, _prod_r),
    "DProdR": ("R", DProd, _excisions, _dprod_r),
    "ProdL": ("L", Prod, _principal, _prod_l),
    "DProdL": ("L", DProd, _principal, _dprod_l),
    "IL": ("L", UnitI, _principal, _il),
    "JL": ("L", UnitJ, _principal, _jl),
    "UnderL": ("L", Under, _left_regions, _under_l),
    "OverL": ("L", Over, _right_regions, _over_l),
    "UpL": ("L", DUp, _gap_regions, _up_l),
    "DownL": ("L", DDown, _infix_regions, _down_l),
}


def instance_premises(seq: HSequent, rule: str, params: dict) -> tuple:
    """Premise sequents of one rule instance; raises InstanceError if the
    parameters do not fit the conclusion."""
    try:
        return _instance_premises(seq, rule, dict(params))
    except (SortError, IndexError, KeyError) as exc:
        raise InstanceError(str(exc)) from exc


def _instance_premises(seq: HSequent, rule: str, params: dict) -> tuple:
    if rule not in RULES:
        raise InstanceError("%r is not a rule built from its conclusion" % (rule,))
    side, connective, _, premises = RULES[rule]
    ant, succ = seq.antecedent, seq.succedent
    if side == "R":
        if not isinstance(succ, connective):
            raise InstanceError("%s needs a %s succedent" % (rule, connective.__name__))
        return premises(ant, succ, params)
    addr = tuple(params["at"])
    item = item_at(ant, addr)
    if isinstance(item, Separator) or not isinstance(item.type, connective):
        raise InstanceError("%s needs a %s item" % (rule, connective.__name__))
    return premises(ant, succ, addr, item, params)


def enumerate_rule_instances(seq: HSequent, only_rule=None):
    """Yield (rule, params, premises) for every instance concluding seq."""
    ant, succ = seq.antecedent, seq.succedent
    principals = [(addr, it) for addr, it in iter_items(ant) if not isinstance(it, Separator)]
    for rule in RULES if only_rule is None else (only_rule,):
        if rule not in RULES:
            continue
        side, connective, candidates, _ = RULES[rule]
        if side == "R":
            found = candidates(ant, succ) if isinstance(succ, connective) else ()
        else:
            found = (
                params
                for addr, item in principals
                if isinstance(item.type, connective)
                for params in candidates(ant, addr, item)
            )
        for params in found:
            try:
                premises = instance_premises(seq, rule, params)
            except InstanceError:
                continue
            yield rule, tuple(sorted(params.items())), premises


# ---------------------------------------------------------------------------
# checking and search


def check(d: HDerivation) -> bool:
    """Validate every inference of a derivation against the rule definitions."""
    return first_violation(d, check_node) is None


def check_node(d: HDerivation) -> bool:
    """Does this one inference follow, by its rule, from its premises?"""
    if d.rule == "Cut":
        if len(d.premises) != 2:
            return False
        p1, p2 = d.premises[0].conclusion, d.premises[1].conclusion
        addr = tuple(d.params_dict()["at"])
        item = item_at(p2.antecedent, addr)
        if isinstance(item, Separator) or item.type != p1.succedent:
            return False
        plugged = generalized_wrap(p1.antecedent, _item_gaps(item))
        want = splice_item(p2.antecedent, addr, plugged.items)
        return d.conclusion.antecedent == want and d.conclusion.succedent == p2.succedent
    want = instance_premises(d.conclusion, d.rule, d.params_dict())
    return tuple(p.conclusion for p in d.premises) == want


def _seq_key(seq: HSequent):
    return (flatten(seq.antecedent), seq.succedent)


def _add_atoms(t: Type, sign: int, counts: dict) -> None:
    """Add each atom of t to counts with its polarity: results count sign,
    arguments of the implications -sign, units nothing."""
    while True:
        if isinstance(t, Atom):
            counts[t.name] = counts.get(t.name, 0) + sign
            return
        if isinstance(t, (Under, DDown)):
            _add_atoms(t.left, -sign, counts)
            t = t.right
        elif isinstance(t, (Over, DUp)):
            _add_atoms(t.right, -sign, counts)
            t = t.left
        elif isinstance(t, (Prod, DProd)):
            _add_atoms(t.left, sign, counts)
            t = t.right
        else:
            return


def _balanced(key) -> bool:
    """The count invariant: without structural rules, every provable sequent
    has each atom's polarity-weighted count equal on both sides (van Benthem
    1991; Morrill, Valentin & Fadda 2011).  key is a _seq_key."""
    tokens, succ = key
    counts = {}
    for tok in tokens:
        if isinstance(tok, Leaf0) or (isinstance(tok, SegTok) and tok.idx == 0):
            _add_atoms(tok.type, 1, counts)
    _add_atoms(succ, -1, counts)
    return not any(counts.values())


def prove(seq: HSequent):
    """Depth-first cut-free proof search; returns a derivation or None."""
    found = prove_all(seq, limit=1)
    return found[0] if found else None


def prove_all(seq: HSequent, limit: int = 16):
    """All cut-free derivations of seq, up to `limit` per subgoal, in
    depth-first order; each subgoal is searched once."""
    if limit < 1:
        raise ValueError("limit must be at least 1, not %r" % (limit,))
    memo = {}

    def go(s):
        key = _seq_key(s)
        if key in memo:
            return memo[key]
        if not _balanced(key):
            return []
        out = []
        for rule, params, premises in enumerate_rule_instances(s):
            lists = []
            for p in premises:
                lists.append(go(p))
                if not lists[-1]:
                    break
            else:
                for combo in product(*lists):
                    out.append(HDerivation(rule, s, combo, params))
                    if len(out) >= limit:
                        break
            if len(out) >= limit:
                break
        memo[key] = out
        return out

    return go(seq)
