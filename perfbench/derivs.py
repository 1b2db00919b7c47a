"""Seeded inputs of the ``search`` and ``roundtrip`` workloads, built from
random valid hd derivations.

The derivations are built forward, rule by rule, with the program's types and
configurations.  Each rule step forms the conclusion itself and then takes
the rule's parameters from the program's enumeration of instances of that
conclusion, as the instance whose premises are the step's premises.  Premises
can match several instances (two adjacent ``I`` items give the same premise
whichever is removed); the least parameters, compared as JSON text, are
taken, so the inputs do not depend on the order in which the program
enumerates instances.  The end-sequents are provable by construction; the
program does not judge them.
"""

from __future__ import annotations

import json
import random

from dcalc.hseq import HDerivation, HSequent, derivation_to_obj, enumerate_rule_instances
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
    Prod,
    Separator,
    SortError,
    Under,
    UnitI,
    UnitJ,
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
    wrap_at,
)

from gen import II, JJ, balanced, cat, family_sequent, flat, flat_text, leaf, term_text, wrap

# ---------------------------------------------------------------------------
# the program's types in the tuple form of gen.py, for the count invariant

_DCALC_KIND = {Prod: "prod", Under: "under", Over: "over", DProd: "dprod", DDown: "ddown", DUp: "dup"}


def from_dcalc(t):
    """Tuple form of a type object of the program."""
    if isinstance(t, Atom):
        return ("atom", t.name)
    if isinstance(t, UnitI):
        return ("I",)
    if isinstance(t, UnitJ):
        return ("J",)
    kind = _DCALC_KIND[type(t)]
    if kind in ("prod", "under", "over"):
        return (kind, from_dcalc(t.left), from_dcalc(t.right))
    return (kind, t.k, from_dcalc(t.left), from_dcalc(t.right))


def config_types(cfg):
    return [item.type for _, item in iter_items(cfg) if not isinstance(item, Separator)]


def sequent_balanced(seq) -> bool:
    return balanced(
        [from_dcalc(t) for t in config_types(seq.antecedent)], from_dcalc(seq.succedent)
    )


# ---------------------------------------------------------------------------
# forward derivation generator
#
# Each rule step turns derivations already in the pool into the conclusion of
# one more rule application, then takes the rule parameters from the
# matching instance of the conclusion (see the module docstring).


def random_type(rng, atoms, depth):
    """A well-sorted random type over `atoms` ((name, sort) pairs)."""
    if depth <= 0 or rng.random() < 0.35:
        return Atom(*rng.choice(atoms))
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
    return Atom(*rng.choice(atoms))


def derivation_depth(d):
    return 1 + max((derivation_depth(p) for p in d.premises), default=0)


def _match_instance(rule, conclusion, children):
    want = tuple(c.conclusion for c in children)
    matches = [
        params
        for _, params, premises in enumerate_rule_instances(conclusion, only_rule=rule)
        if premises == want
    ]
    if not matches:
        return None
    params = min(matches, key=lambda p: json.dumps(dict(p), sort_keys=True))
    return HDerivation(rule, conclusion, children, params)


def _item_gaps(item):
    return item.gaps if isinstance(item, Occurrence) else ()


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


def _g_id(rng, atoms):
    t = random_type(rng, atoms, rng.randint(0, 1))
    return HDerivation("Id", HSequent(figure(t), t), (), ())


def _g_under_r(rng, pool):
    d = rng.choice(pool)
    items = d.conclusion.antecedent.items
    a = _figure_type(items[0]) if items else None
    if a is None:
        return None
    concl = HSequent(HyperConfig(items[1:]), Under(a, d.conclusion.succedent))
    return _match_instance("UnderR", concl, (d,))


def _g_over_r(rng, pool):
    d = rng.choice(pool)
    items = d.conclusion.antecedent.items
    b = _figure_type(items[-1]) if items else None
    if b is None:
        return None
    concl = HSequent(HyperConfig(items[:-1]), Over(d.conclusion.succedent, b))
    return _match_instance("OverR", concl, (d,))


def _g_down_r(rng, pool):
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


def _g_up_r(rng, pool):
    d = rng.choice(pool)
    cands = [(a, it) for a, it in _items(d.conclusion.antecedent) if _figure_type(it) is not None]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    gamma = splice_item(d.conclusion.antecedent, addr, (SEP,))
    k = sep_index_at(gamma, addr)
    concl = HSequent(gamma, DUp(k, d.conclusion.succedent, it.type))
    return _match_instance("UpR", concl, (d,))


def _g_prod_r(rng, pool):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    ant = HyperConfig(d1.conclusion.antecedent.items + d2.conclusion.antecedent.items)
    concl = HSequent(ant, Prod(d1.conclusion.succedent, d2.conclusion.succedent))
    return _match_instance("ProdR", concl, (d1, d2))


def _g_dprod_r(rng, pool):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    sort = sort_of_config(d1.conclusion.antecedent)
    if sort == 0:
        return None
    k = rng.randint(1, sort)
    ant = wrap_at(d1.conclusion.antecedent, k, d2.conclusion.antecedent)
    concl = HSequent(ant, DProd(k, d1.conclusion.succedent, d2.conclusion.succedent))
    return _match_instance("DProdR", concl, (d1, d2))


def _g_il(rng, pool):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    level, cfg = rng.choice(list(_levels(ant)))
    pos = rng.randint(0, len(cfg.items))
    new_ant = replace_range(ant, level, pos, pos, (Leaf0(UnitI()),))
    return _match_instance("IL", HSequent(new_ant, d.conclusion.succedent), (d,))


def _g_jl(rng, pool):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    level, cfg = rng.choice(list(_levels(ant)))
    i = rng.randint(0, len(cfg.items))
    j = rng.randint(i, len(cfg.items))
    occ = Occurrence(UnitJ(), (HyperConfig(cfg.items[i:j]),))
    new_ant = replace_range(ant, level, i, j, (occ,))
    return _match_instance("JL", HSequent(new_ant, d.conclusion.succedent), (d,))


def _g_prod_l(rng, pool):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    spots = [
        (level, p)
        for level, cfg in _levels(ant)
        for p in range(len(cfg.items) - 1)
        if not isinstance(cfg.items[p], Separator)
        and not isinstance(cfg.items[p + 1], Separator)
    ]
    if not spots:
        return None
    level, p = rng.choice(spots)
    x, y = config_at(ant, level).items[p : p + 2]
    new = figure_items(Prod(x.type, y.type), _item_gaps(x) + _item_gaps(y))
    new_ant = replace_range(ant, level, p, p + 2, new)
    return _match_instance("ProdL", HSequent(new_ant, d.conclusion.succedent), (d,))


def _g_dprod_l(rng, pool):
    d = rng.choice(pool)
    ant = d.conclusion.antecedent
    spots = [
        (addr, g)
        for addr, it in _items(ant)
        if isinstance(it, Occurrence)
        for g, gap in enumerate(it.gaps)
        if len(gap.items) == 1 and not isinstance(gap.items[0], Separator)
    ]
    if not spots:
        return None
    addr, g = rng.choice(spots)
    it = item_at(ant, addr)
    inner = it.gaps[g].items[0]
    t = DProd(g + 1, it.type, inner.type)
    new_gaps = it.gaps[:g] + _item_gaps(inner) + it.gaps[g + 1 :]
    new_ant = splice_item(ant, addr, figure_items(t, new_gaps))
    return _match_instance("DProdL", HSequent(new_ant, d.conclusion.succedent), (d,))


def _g_under_l(rng, pool):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    a = sort_of_type(d1.conclusion.succedent)
    cands = [(ad, it) for ad, it in _items(d2.conclusion.antecedent) if len(_item_gaps(it)) >= a]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    t = Under(d1.conclusion.succedent, it.type)
    new = generalized_wrap(d1.conclusion.antecedent, g[:a]).items + figure_items(t, g[a:])
    new_ant = splice_item(d2.conclusion.antecedent, addr, new)
    return _match_instance("UnderL", HSequent(new_ant, d2.conclusion.succedent), (d1, d2))


def _g_over_l(rng, pool):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    b = sort_of_type(d1.conclusion.succedent)
    cands = [(ad, it) for ad, it in _items(d2.conclusion.antecedent) if len(_item_gaps(it)) >= b]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    t = Over(it.type, d1.conclusion.succedent)
    region = generalized_wrap(d1.conclusion.antecedent, g[len(g) - b :] if b else ()).items
    new = figure_items(t, g[: len(g) - b]) + region
    new_ant = splice_item(d2.conclusion.antecedent, addr, new)
    return _match_instance("OverL", HSequent(new_ant, d2.conclusion.succedent), (d1, d2))


def _g_up_l(rng, pool):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    b = sort_of_type(d1.conclusion.succedent)
    cands = [(ad, it) for ad, it in _items(d2.conclusion.antecedent) if len(_item_gaps(it)) >= b]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    if len(g) - b + 1 < 1:
        return None
    k = rng.randint(1, len(g) - b + 1)
    t = DUp(k, it.type, d1.conclusion.succedent)
    region = generalized_wrap(d1.conclusion.antecedent, g[k - 1 : k - 1 + b])
    new_gaps = g[: k - 1] + (region,) + g[k - 1 + b :]
    new_ant = splice_item(d2.conclusion.antecedent, addr, figure_items(t, new_gaps))
    return _match_instance("UpL", HSequent(new_ant, d2.conclusion.succedent), (d1, d2))


def _g_down_l(rng, pool):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    a = sort_of_type(d1.conclusion.succedent)
    gamma = d1.conclusion.antecedent
    top_seps = [p for p, x in enumerate(gamma.items) if isinstance(x, Separator)]
    if a == 0 or not top_seps:
        return None
    pos = rng.choice(top_seps)
    k = sep_index_at(gamma, (pos,))
    cands = [(ad, it) for ad, it in _items(d2.conclusion.antecedent) if len(_item_gaps(it)) >= a - 1]
    if not cands:
        return None
    addr, it = rng.choice(cands)
    g = _item_gaps(it)
    contl, contr = g[: k - 1], g[len(g) - (a - k) :] if a - k else ()
    item_gaps = g[k - 1 : len(g) - (a - k)] if a - k else g[k - 1 :]
    t = DDown(k, d1.conclusion.succedent, it.type)
    absl, absr = HyperConfig(gamma.items[:pos]), HyperConfig(gamma.items[pos + 1 :])
    new = (
        generalized_wrap(absl, contl).items
        + figure_items(t, item_gaps)
        + generalized_wrap(absr, contr).items
    )
    new_ant = splice_item(d2.conclusion.antecedent, addr, new)
    return _match_instance("DownL", HSequent(new_ant, d2.conclusion.succedent), (d1, d2))


_RULE_STEPS = (
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


# The rule steps draw from a window of recent derivations, refreshed with new
# axioms, so the stream does not drift with the types drawn at its start.
# Neighbouring derivations still share types, over stretches of hundreds.
POOL_WINDOW = 60
NEW_AXIOM = 0.1


def derivations(rng, atoms, max_depth, max_flat):
    """Endless stream of random valid derivations of depth >= 2."""
    units = [
        HDerivation("IR", HSequent(EMPTY, UnitI()), (), ()),
        HDerivation("JR", HSequent(HyperConfig((SEP,)), UnitJ()), (), ()),
    ]
    pool = units + [_g_id(rng, atoms) for _ in range(10)]
    while True:
        if len(pool) > len(units) + POOL_WINDOW:
            del pool[len(units)]
        if rng.random() < NEW_AXIOM:
            pool.append(_g_id(rng, atoms))
        try:
            d = rng.choice(_RULE_STEPS)(rng, pool)
        except SortError:
            d = None
        if d is None or len(flatten(d.conclusion.antecedent)) > max_flat:
            continue
        depth = derivation_depth(d)
        if depth > max_depth:
            continue
        pool.append(d)
        if depth >= 2:
            yield d


# ---------------------------------------------------------------------------
# search workload

DERIV_ATOMS = (("p", 0), ("q", 0), ("r", 1), ("s", 2))
# Generated search inputs have at most 6 flat tokens: failing search on
# random sequents is heavy-tailed beyond that, and a few draws would then
# decide a run.  The exponential growth is measured by the fixed family.
# Per round: the failing family Q, (TV, Q)^k => s for k = 2, 3, 4.  There are
# enough k = 2 members that the 90th percentile of a round's latencies falls
# among them ...
SEARCH_FAILING = {2: 10, 3: 2, 4: 1}
# ... the provable family (n, SV)^k, Q, TV, Q => s; the median falls in the
# middle of the k = 2 members, with as many ops below them as above ...
SEARCH_PROVABLE = {0: 2, 1: 2, 2: 21, 3: 8, 4: 7}
# ... and this many generated end-sequents of each size (flat tokens), each
# with a perturbed copy.
SEARCH_GENERATED = {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}
FRESH_ATOMS = (("z0", 0), ("z1", 1), ("z2", 2))


def _rename_atom(t, target, counter):
    """Copy of type t with its target-th atom occurrence made fresh."""
    if isinstance(t, Atom):
        counter[0] += 1
        if counter[0] - 1 == target:
            return Atom(*FRESH_ATOMS[t.sort])
        return t
    if isinstance(t, (UnitI, UnitJ)):
        return t
    left = _rename_atom(t.left, target, counter)
    right = _rename_atom(t.right, target, counter)
    if isinstance(t, (Prod, Under, Over)):
        return type(t)(left, right)
    return type(t)(t.k, left, right)


def _count_atoms(t):
    if isinstance(t, Atom):
        return 1
    if isinstance(t, (UnitI, UnitJ)):
        return 0
    return _count_atoms(t.left) + _count_atoms(t.right)


def perturb(seq, rng):
    """An unprovable copy of seq: one atom occurrence of the succedent
    renamed to a fresh atom of the same sort, or None if it has no atom."""
    n = _count_atoms(seq.succedent)
    if n == 0:
        return None
    new = HSequent(seq.antecedent, _rename_atom(seq.succedent, rng.randrange(n), [0]))
    assert not sequent_balanced(new)
    return new


def search_inputs(seed, rounds):
    rng = random.Random("search-%d" % seed)
    stream = derivations(random.Random("search-derivations-%d" % seed), DERIV_ATOMS, 6,
                         max(SEARCH_GENERATED))
    sig_atoms = list(DERIV_ATOMS) + list(FRESH_ATOMS)
    out = []
    tag = 0
    for _ in range(rounds):
        ops = []
        for kind, counts in (("failing", SEARCH_FAILING), ("provable", SEARCH_PROVABLE)):
            for k, count in sorted(counts.items()):
                for _ in range(count):
                    # fresh atom names for each op, so that no op reuses the
                    # program's caches from an earlier one
                    tag += 1
                    n_name, s_name = "n%d" % tag, "s%d" % tag
                    sig_atoms += [(n_name, 0), (s_name, 0)]
                    text, size = family_sequent(kind, k, n_name, s_name)
                    ops.append({"group": kind, "k": k, "sequent": text,
                                "provable": kind == "provable", "size": size})
        wanted = dict(SEARCH_GENERATED)
        while any(wanted.values()):
            seq = next(stream).conclusion
            size = len(flatten(seq.antecedent))
            bad = perturb(seq, rng)
            if not wanted.get(size) or bad is None:
                continue
            assert sequent_balanced(seq)
            ops.append({"group": "generated", "sequent": str(seq), "provable": True, "size": size})
            ops.append({"group": "perturbed", "sequent": str(bad), "provable": False, "size": size})
            wanted[size] -= 1
        rng.shuffle(ops)
        out.append(ops)
    sig = "".join("%s %d\n" % a for a in sig_atoms)
    return {"sig": sig, "rounds": out}


# ---------------------------------------------------------------------------
# roundtrip workload: generated derivations and a second term for each
# end antecedent

# Each round has one derivation of each end-antecedent size (flat tokens).
# The generator's pool grows as it runs, so without this the later rounds
# would hold larger derivations than the first ones.
ROUNDTRIP_SIZES = tuple(range(1, 15))


def _item_term(item, rng):
    if isinstance(item, Separator):
        return JJ
    if isinstance(item, Leaf0):
        return leaf(str(item.type), 0)
    t = leaf(str(item.type), len(item.gaps))
    for g in reversed(range(len(item.gaps))):
        t = wrap(g + 1, t, _items_term(item.gaps[g].items, rng))
    return t


def _items_term(items, rng):
    """A random term denoting the items: random bracketing, some units."""
    if not items:
        return II
    if len(items) == 1:
        t = _item_term(items[0], rng)
        r = rng.random()
        if r < 0.1:
            return cat(II, t)
        if r < 0.2:
            return cat(t, II)
        return t
    k = rng.randint(1, len(items) - 1)
    return cat(_items_term(items[:k], rng), _items_term(items[k:], rng))


def roundtrip_inputs(seed, rounds):
    rng = random.Random("roundtrip-%d" % seed)
    out = []
    for r in range(rounds):
        # a fresh stream per round: derivations drawn from one pool share
        # its types, so a seed's rounds would otherwise not be independent
        stream = derivations(random.Random("roundtrip-derivations-%d-%d" % (seed, r)),
                             DERIV_ATOMS, 6, max(ROUNDTRIP_SIZES))
        waiting = {n: [] for n in ROUNDTRIP_SIZES}
        while not all(waiting.values()):
            d = next(stream)
            n = len(flatten(d.conclusion.antecedent))
            if n in waiting:
                waiting[n].append(d)
        ops = []
        for n in ROUNDTRIP_SIZES:
            d = waiting[n].pop(0)
            ant = d.conclusion.antecedent
            target = _items_term(ant.items, rng)
            assert flat_text(flat(target)) == config_str(ant)
            ops.append({
                "derivation": json.dumps(derivation_to_obj(d), sort_keys=True),
                "target": term_text(target),
                "sequent": str(d.conclusion),
                "size": n,
                "depth": derivation_depth(d),
            })
        out.append(ops)
    sig = "".join("%s %d\n" % a for a in DERIV_ATOMS)
    return {"sig": sig, "rounds": out}
