"""Hypersequent calculus over configurations, without structural rules.

A sequent (``HSequent``, a ``derivation.Sequent`` written with ``=>``)
pairs a hyperconfiguration with a succedent type of equal sort.
Every connective has a left and a right rule; the left rules for the
implications abstract a region of the antecedent into the gaps of the
premise ("chunks"), which is where all the combinatorics of discontinuity
lives.  The ``RULES`` table is the single source of truth for the rules:
each row names the side and the connective a rule acts on, how its
candidate parameters are generated and how its premises are built.
Enumeration, proof search and checking all read it.  Cut is supported by
the checker but never used in search.  Every rule keeps each atom's
polarity-weighted count equal on both sides (the count invariant,
``_balanced``), so the search checks the root's counts once and then
filters rule candidates by counts: a candidate whose minor premise
breaks the invariant is skipped before any premise is built.  It finds
what an unpruned search finds.  There is one search, ``prove_each``,
which proves several sequents with one memo; ``prove_all`` is its
one-sequent case and ``prove`` its first derivation (``limit=1``).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from .derivation import Derivation, InstanceError, Sequent, _axiom, _int_param
from .derivation import checked_premises, first_violation, from_obj, rule_params
from .derivation import derivation_latex, derivation_text, derivation_to_obj  # noqa: F401 (re-exported)
from .syntax import (
    EMPTY,
    DDown,
    DProd,
    DUp,
    HyperConfig,
    Leaf0,
    Occurrence,
    Over,
    Prod,
    SEP,
    SegTok,
    Separator,
    Signature,
    SortError,
    Under,
    UnitI,
    UnitJ,
    _parse_config_body,
    _parse_config_entry,
    _parse_whole,
    atom_counts,
    config_at,
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

HDerivation = Derivation


def _read_config(text: str, sig: Signature, table: dict) -> HyperConfig:
    """An antecedent in a read (see Sequent._read): Lambda, or its entries
    between commas, each parsed alone the first time, around the table's
    object for its type."""
    if text.strip(" \t") == "Lambda":
        return EMPTY
    entries = []
    for part in text.split(","):
        key = part.strip(" \t")
        entry = table.get(key)
        if entry is None:
            entry = _parse_whole(_parse_config_entry, key, sig, "entry")
            if entry is not SEP and table.setdefault(entry.type, entry.type) is not entry.type:
                entry = replace(entry, type=table[entry.type])
            table[key] = entry
        entries.append(entry)
    return parse_flat(entries)


class HSequent(Sequent):
    """A hyperconfiguration => a type."""

    arrow, _arrow_token = "=>", "DARROW"
    _sort = staticmethod(sort_of_config)
    _parse_antecedent = staticmethod(_parse_config_body)
    _read_antecedent = staticmethod(_read_config)


def parse_hsequent(text: str, sig: Signature) -> HSequent:
    return HSequent.parse(text, sig)


def derivation_from_obj(obj: dict, sig: Signature) -> HDerivation:
    return from_obj(obj, sig, HSequent)


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
    contiguous item ranges at any depth, zero-width ranges allowed.  A
    depth-first walk with its own stack: a state is a place in some item
    list, the chunks left to place, the specs so far and the places to
    resume at once that list is done (the next gap of the occurrence it is
    in, then the items after it), as a linked list.  At each state it tries,
    in this order: leaving the list, a chunk from here to each place at or
    after it, and stepping over the item here.
    """
    stack = [(region.items, (), 0, count, (), None)]
    while stack:
        items, lvl, i, r, specs, resume = stack.pop()
        tries = []
        if i == len(items):
            if resume is None:
                if r == 0:
                    yield specs
            else:
                (items2, lvl2, i2), rest = resume
                tries.append((items2, lvl2, i2, r, specs, rest))
        if r >= 1:
            for e in range(i, len(items) + 1):
                tries.append((items, lvl, e, r - 1, specs + ((lvl, i, e),), resume))
        if i < len(items):
            item = items[i]
            if isinstance(item, Leaf0):
                tries.append((items, lvl, i + 1, r, specs, resume))
            elif isinstance(item, Occurrence):
                after = ((items, lvl, i + 1), resume)
                for g in range(len(item.gaps) - 1, 0, -1):
                    after = ((item.gaps[g].items, lvl + (i, g), 0), after)
                tries.append((item.gaps[0].items, lvl + (i, 0), 0, r, specs, after))
            # a bare separator can only be consumed by a chunk
        stack += reversed(tries)


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
# function is called only where the side and the connective fit: with (ant,
# succ) for a right rule, (ant, addr, item) for a left rule.  It yields
# (params, fits) pairs, where fits tells whether the minor premise (the one
# whose succedent is an operand of the principal type: ProdR's left,
# DProdR's excised slice, the argument of the left rules for implications)
# keeps the count invariant (see _balanced); it is True for rules with one
# premise or none.  The candidates keep running sums of the stored atom
# counts as their splits and regions grow, so fits costs no premise.  The
# premises function, called with (ant, succ, params) or (ant, succ, addr,
# item, params), builds the premise sequents and raises InstanceError when
# the rest of the instance does not fit.


def _item_gaps(item) -> tuple:
    return item.gaps if isinstance(item, Occurrence) else ()


def _add(counts: dict, more: dict, sign: int = 1) -> dict:
    for name, n in more.items():
        counts[name] = counts.get(name, 0) + sign * n
    return counts


def _add_items(counts: dict, items, sign: int = 1) -> dict:
    """Add the atom counts of the items, their gaps' items included."""
    stack = [items]
    while stack:
        for item in stack.pop():
            if type(item) is not Separator:
                _add(counts, atom_counts(item.type), sign)
                if type(item) is Occurrence:
                    stack += [gap.items for gap in item.gaps]
    return counts


def _cancels(counts: dict) -> bool:
    """Is every atom's count zero?"""
    return not any(counts.values())


def _unchunked(counts: dict, region: HyperConfig, specs) -> dict:
    """counts less the atom counts of what the chunks take out of region."""
    taken = [config_at(region, lvl).items[start:end] for lvl, start, end in specs if start < end]
    if taken:
        counts = dict(counts)
        for items in taken:
            _add_items(counts, items, -1)
    return counts


# right rules: candidate parameters


def _once(ant, succ):
    return (({}, True),)


def _index(ant, succ):
    return (({"k": succ.k}, True),)


def _splits(ant, succ):
    want = sort_of_type(succ.left)
    total = 0
    counts = _add({}, atom_counts(succ.left), -1)  # the left part's, less succ.left's
    for split in range(len(ant.items) + 1):
        if total == want:
            yield {"split": split}, _cancels(counts)
        if split < len(ant.items):
            item = ant.items[split]
            total += sort_of_config(HyperConfig((item,)))
            _add_items(counts, (item,))


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
            total = 0  # the slice's sort
            counts = _add({}, atom_counts(succ.right), -1)  # the slice's, less succ.right's
            for end in range(start, len(items) + 1):
                if end > start:
                    total += sort_of_config(HyperConfig(items[end - 1 : end]))
                    _add_items(counts, (items[end - 1],))
                if total > want:
                    break
                if total == want:
                    yield {"excise": (level, start, end)}, _cancels(counts)


# right rules: premises


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
    return (({"at": addr}, True),)


# The left rules' minor premise is a region beside the principal, its chunks
# taken out, against the argument type.  _regions grows the region one item at
# a time and keeps its atom counts, less the argument's, as a running sum.


def _regions(items, p, leftward, counts, gaps):
    """Yield (bound, specs, counts less the chunks) for each chunking into
    `gaps` gaps of items[q:p], q = p, ..., 0, when leftward, else of
    items[p+1:r], r = p+1, ..., len(items); counts grows in place with it."""
    for b in range(p, -1, -1) if leftward else range(p + 1, len(items) + 1):
        part = items[b:p] if leftward else items[p + 1 : b]
        if part:  # the item just taken in
            _add_items(counts, part[:1] if leftward else part[-1:])
        region = HyperConfig(part)
        for specs in enum_chunkings(region, gaps):
            yield b, specs, _unchunked(counts, region, specs)


def _left_regions(ant, addr, item):
    arg, items = item.type.left, config_at(ant, addr[:-1]).items
    counts = _add({}, atom_counts(arg), -1)
    for q, specs, rest in _regions(items, addr[-1], True, counts, sort_of_type(arg)):
        yield {"at": addr, "mstart": q, "chunks": specs}, _cancels(rest)


def _right_regions(ant, addr, item):
    arg, items = item.type.right, config_at(ant, addr[:-1]).items
    counts = _add({}, atom_counts(arg), -1)
    for r, specs, rest in _regions(items, addr[-1], False, counts, sort_of_type(arg)):
        yield {"at": addr, "mend": r, "chunks": specs}, _cancels(rest)


def _gap_regions(ant, addr, item):
    t = item.type
    region = item.gaps[t.k - 1]
    counts = _add_items(_add({}, atom_counts(t.right), -1), region.items)
    for specs in enum_chunkings(region, sort_of_type(t.right)):
        yield {"at": addr, "chunks": specs}, _cancels(_unchunked(counts, region, specs))


def _infix_regions(ant, addr, item):
    # the principal's place is a chunk of its own, so the minor premise holds
    # a left and a right part; the right walk adds to a copy of the counts
    # the left walk yields, as _unchunked may hand back the left walk's own
    t = item.type
    p, items = addr[-1], config_at(ant, addr[:-1]).items
    left = _add({}, atom_counts(t.left), -1)
    for q, lspecs, lrest in _regions(items, p, True, left, t.k - 1):
        for r, rspecs, rest in _regions(items, p, False, dict(lrest), sort_of_type(t.left) - t.k):
            chunks = lspecs + _shift_specs(rspecs, p - q + 1)
            yield {"at": addr, "mstart": q, "mend": r, "chunks": chunks}, _cancels(rest)


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
# the parameters each rule takes, as its candidates yield them, and Cut,
# which takes the address of its cut item
_AT = frozenset(("at",))
PARAM_NAMES = {
    **dict.fromkeys(("Id", "IR", "JR", "UnderR", "OverR"), frozenset()),
    **dict.fromkeys(("DownR", "UpR"), frozenset(("k",))),
    "ProdR": frozenset(("split",)),
    "DProdR": frozenset(("excise",)),
    **dict.fromkeys(("ProdL", "DProdL", "IL", "JL", "Cut"), _AT),
    "UnderL": _AT | {"mstart", "chunks"},
    "OverL": _AT | {"mend", "chunks"},
    "UpL": _AT | {"chunks"},
    "DownL": _AT | {"mstart", "mend", "chunks"},
}


def instance_premises(seq: HSequent, rule: str, params: dict) -> tuple:
    """Premise sequents of one rule instance; raises InstanceError if the
    parameters do not fit the conclusion, or one is missing or not of its
    shape, or one the rule does not take."""
    return checked_premises(_instance_premises, seq, rule, params, PARAM_NAMES)


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


def _candidates(seq: HSequent, only_rule=None):
    """Yield (rule, params, fits) for every candidate instance concluding
    seq, in enumeration order; fits as the candidates functions give it."""
    ant, succ = seq.antecedent, seq.succedent
    principals = [(addr, it) for addr, it in iter_items(ant) if not isinstance(it, Separator)]
    for rule in RULES if only_rule is None else (only_rule,):
        if rule not in RULES:
            continue
        side, connective, candidates, _ = RULES[rule]
        if side == "R":
            if isinstance(succ, connective):
                for params, fits in candidates(ant, succ):
                    yield rule, params, fits
        else:
            for addr, item in principals:
                if isinstance(item.type, connective):
                    for params, fits in candidates(ant, addr, item):
                        yield rule, params, fits


def _built_premises(seq: HSequent, rule: str, params: dict):
    """The candidate's premises, or None when the rest of it does not fit;
    the candidates are well-typed, so instance_premises' check is skipped."""
    try:
        return _instance_premises(seq, rule, params)
    except (InstanceError, SortError, IndexError, KeyError):
        return None


def enumerate_rule_instances(seq: HSequent, only_rule=None):
    """Yield (rule, params, premises) for every instance concluding seq."""
    for rule, params, _ in _candidates(seq, only_rule):
        premises = _built_premises(seq, rule, params)
        if premises is not None:
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
        addr = _int_param("at", rule_params(d.rule, d.params, PARAM_NAMES)["at"])
        item = item_at(p2.antecedent, addr)
        if isinstance(item, Separator) or item.type != p1.succedent:
            return False
        plugged = generalized_wrap(p1.antecedent, _item_gaps(item))
        want = splice_item(p2.antecedent, addr, plugged.items)
        return d.conclusion.antecedent == want and d.conclusion.succedent == p2.succedent
    want = instance_premises(d.conclusion, d.rule, d.params)
    return tuple(p.conclusion for p in d.premises) == want


def _seq_key(seq: HSequent):
    return (flatten(seq.antecedent), seq.succedent)


def _balanced(key) -> bool:
    """The count invariant: without structural rules, every provable sequent
    has each atom's polarity-weighted count equal on both sides (van Benthem
    1991; Morrill, Valentin & Fadda 2011).  key is a _seq_key."""
    tokens, succ = key
    counts = _add({}, atom_counts(succ), -1)
    for tok in tokens:
        if type(tok) is Leaf0 or (type(tok) is SegTok and tok.idx == 0):
            _add(counts, atom_counts(tok.type))
    return _cancels(counts)


def prove(seq: HSequent):
    """Depth-first cut-free proof search; returns a derivation or None."""
    found = prove_all(seq, limit=1)
    return found[0] if found else None


def prove_all(seq: HSequent, limit: int = 16):
    """All cut-free derivations of seq, up to `limit` per subgoal, in
    depth-first order; each subgoal is searched once."""
    return prove_each((seq,), limit)[0]


def prove_each(seqs, limit: int = 16) -> list:
    """[prove_all(s, limit) for s in seqs], in one search whose memo the
    sequents share: a subgoal met again, under any of them, is searched
    once.  The memo dies with the call."""
    if limit < 1:
        raise ValueError("limit must be at least 1, not %r" % (limit,))
    memo = {}
    return [list(_search(s, limit, memo)) if _balanced(_seq_key(s)) else [] for s in seqs]


def _search(s: HSequent, limit: int, memo: dict) -> list:
    """prove_all below its root check.  Every subgoal is balanced: the root
    is, each rule keeps the counts, and of a candidate's two premises both
    balance or neither does, so the candidates whose minor premise does not
    are skipped before anything is built.  A module-level function, so the
    memo dies with the call and nothing the search built waits for the
    cycle collector."""
    key = _seq_key(s)
    if key in memo:
        return memo[key]
    out = []
    for rule, params, fits in _candidates(s):
        premises = _built_premises(s, rule, params) if fits else None
        if premises is None:
            continue
        lists = []
        for p in premises:
            lists.append(_search(p, limit, memo))
            if not lists[-1]:
                break
        else:
            params = tuple(sorted(params.items()))
            for combo in product(*lists):
                out.append(HDerivation(rule, s, combo, params))
                if len(out) >= limit:
                    break
        if len(out) >= limit:
            break
    memo[key] = out
    return out
