"""The hypersequent presentation: rule instances, checking, proof search."""

import hashlib
import json
import random
import time
from collections import Counter

import pytest

from dcalc import hseq
from dcalc.derivation import first_violation
from dcalc.hseq import (
    RULES,
    HDerivation,
    HSequent,
    InstanceError,
    _balanced,
    _seq_key,
    apply_chunks,
    check,
    check_node,
    derivation_from_obj,
    derivation_latex,
    derivation_text,
    derivation_to_obj,
    enum_chunkings,
    enumerate_rule_instances,
    instance_premises,
    parse_hsequent,
    prove,
    prove_all,
)
from dcalc.mseq import MDerivation, check_m, parse_msequent, structural_step
from dcalc.syntax import (
    Atom,
    HyperConfig,
    Leaf0,
    Separator,
    Signature,
    config_at,
    figure,
    iter_items,
    parse_type,
)
from dcalc.terms import RuleApp

from helpers import (
    REFERENCE_PREMISES,
    _down_l,
    generate_derivations,
    hderivation_depth,
    random_config,
    reference_apply_chunks,
    reference_prove,
    reference_prove_all,
)

SIG = Signature.from_text("a 0\nb 2\nc 0\nd 2\ne 1\nn 0\ns 0\n")
GENERATED_ATOMS = (("p", 0), ("q", 0), ("r", 1), ("s", 2))


def seq(text):
    return parse_hsequent(text, SIG)


def must_prove(text):
    d = prove(seq(text))
    assert d is not None, "expected a proof of %s" % text
    assert check(d)
    return d


# ---------------------------------------------------------------------------
# axioms and basic rules


def test_axioms():
    assert must_prove("a => a").rule == "Id"
    assert must_prove("0:e,[],1:e => e").rule == "Id"
    assert must_prove("Lambda => I").rule == "IR"
    assert must_prove("[] => J").rule == "JR"


def test_continuous_application():
    must_prove("n, (n \\ s) => s")
    must_prove("(s / n), n => s")
    assert prove(seq("(n \\ s), n => s")) is None
    assert prove(seq("a => c")) is None


def test_right_rules():
    assert must_prove("n => (s / (n \\ s))").rule == "OverR"
    assert must_prove("Lambda => (a \\ a)").rule == "UnderR"
    must_prove("a, c => (a . c)")
    must_prove("0:e,a,1:e => (e @1 a)")
    must_prove("a => (e !1 (e @1 a))")
    must_prove("0:e,[],1:e => ((e @1 a) ^1 a)")


def test_discontinuous_application():
    # a sort-1 functor consumes its argument inside the gap
    must_prove("0:e,a,1:e => (e @1 a)")
    must_prove("0:(a ^1 c),c,1:(a ^1 c) => a")
    must_prove("a, ((a \\ c) . (c \\ c)) => c")


def test_unit_left_rules():
    must_prove("I, a => a")
    must_prove("0:J,a,1:J => a")
    must_prove("0:J,[],1:J => J")


def test_prove_all_counts():
    assert len(prove_all(seq("a => a"), limit=8)) == 1
    assert len(prove_all(seq("(a/c), (c/a) => (a/a)"), limit=32)) == 2
    assert len(prove_all(seq("a => c"), limit=8)) == 0


def test_proofs_never_use_cut():
    rng = random.Random(3)
    for d in generate_derivations(rng, (("a", 0), ("e", 1)), 20):
        found = prove(d.conclusion)
        assert found is not None
        stack = [found]
        while stack:
            node = stack.pop()
            assert node.rule != "Cut"
            stack.extend(node.premises)


# ---------------------------------------------------------------------------
# the checker


def test_check_rejects_wrong_rule_name():
    d = must_prove("n, (n \\ s) => s")
    bad = HDerivation("OverL", d.conclusion, d.premises, d.params)
    assert not check(bad)


def test_check_rejects_wrong_conclusion():
    d = must_prove("n, (n \\ s) => s")
    bad = HDerivation(d.rule, seq("n, (n \\ s) => n"), d.premises, d.params)
    assert not check(bad)


def test_check_rejects_swapped_premises():
    d = must_prove("n, (n \\ s) => s")
    assert len(d.premises) == 2
    bad = HDerivation(d.rule, d.conclusion, d.premises[::-1], d.params)
    assert not check(bad)


def test_check_accepts_cut():
    left = must_prove("n, (n \\ s) => s")
    right = must_prove("s => s")
    cut = HDerivation("Cut", left.conclusion, (left, right), (("at", (0,)),))
    assert check(cut)
    wrong = HDerivation("Cut", seq("n, (n \\ s) => n"), (left, right), (("at", (0,)),))
    assert not check(wrong)


def test_enumerate_rule_instances_premises_are_wellformed():
    s = seq("n, (n \\ s) => s")
    found = list(enumerate_rule_instances(s))
    assert any(rule == "UnderL" for rule, _, _ in found)
    for rule, params, premises in found:
        assert premises == instance_premises(s, rule, dict(params))


# sha256 of every (rule, params, premises) that enumerate_rule_instances
# yields, in order, for every node of the generated derivations below.  Proof
# search returns the first instance that works and lower matches the first
# fitting one, so a change of candidate order changes their output.
ENUMERATION_DIGEST = "925f079a75396a24108af2ff681ac40e0cb2ef0e56e1ece37cd606f829cf2f47"


def test_enumeration_order_is_pinned():
    h = hashlib.sha256()
    for d in generate_derivations(random.Random(17), GENERATED_ATOMS, 60):
        stack = [d]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            for rule, params, premises in enumerate_rule_instances(node.conclusion):
                h.update(("%s %r %s\n" % (rule, params, [str(p) for p in premises])).encode())
    assert h.hexdigest() == ENUMERATION_DIGEST


def _chunked(apply, region, specs):
    try:
        return apply(region, specs)
    except (InstanceError, IndexError):
        return None


def _level_mutants(level):
    # odd-length, negative and out-of-range levels
    return (tuple(level) + (0,), tuple(level) + (-1, 0), tuple(level) + (5, 0))


def test_apply_chunks_agrees_with_the_reference_definition():
    rng = random.Random(23)
    atoms = (("p", 0), ("r", 1), ("s", 2))
    outcomes = set()
    for _ in range(300):
        region = random_config(rng, atoms, budget=8)
        levels = list(hseq._levels(region))
        cases = [specs for count in range(4) for specs in enum_chunkings(region, count)]
        cases += [specs[::-1] for specs in cases if len(specs) > 1]
        for _ in range(40):
            specs = []
            for _ in range(rng.randint(1, 3)):
                level = rng.choice(levels)
                level = rng.choice((level,) + _level_mutants(level))
                start = rng.randint(-1, 4)
                specs.append((level, start, start + rng.randint(-1, 3)))
            # the random specs overlap, nest or sit at zero width; sorted,
            # they often also come in flat order
            cases += [tuple(specs), tuple(sorted(specs))]
        for specs in cases:
            want = _chunked(reference_apply_chunks, region, specs)
            assert _chunked(apply_chunks, region, specs) == want, (str(region), specs)
            outcomes.add(want is None)
    assert outcomes == {False, True}


def _premises(s, rule, params):
    try:
        return instance_premises(s, rule, params)
    except InstanceError:
        return None


def _chunk_mutants(chunks):
    chunks = tuple(chunks)
    # too few and too many chunks
    yield chunks[:-1]
    yield chunks[1:]
    level, _, end = chunks[-1] if chunks else ((), 0, 0)
    yield chunks + ((level, end, end),)
    for j, (level, start, end) in enumerate(chunks):
        # shrunk by an item at either end, which leaves that item, often a
        # separator, outside every chunk; or moved to a bad level
        moves = [(level, start + 1, end), (level, start, end - 1)] if start < end else []
        moves += [(lvl, start, end) for lvl in _level_mutants(level)]
        for spec in moves:
            yield chunks[:j] + (spec,) + chunks[j + 1 :]


def _region_mutants(s, params):
    """The candidate; its region bounds at -1, one off and past the end; its
    chunk list with each chunk mutant."""
    yield params
    n = len(config_at(s.antecedent, params["at"][:-1]).items)
    for key in ("mstart", "mend"):
        if key in params:
            for bound in (-1, params[key] - 1, params[key] + 1, n + 1):
                yield dict(params, **{key: bound})
    for chunks in _chunk_mutants(params["chunks"]):
        yield dict(params, chunks=chunks)


def _down_l_mutants(s, params):
    yield from _region_mutants(s, params)
    chunks = params["chunks"]
    m = params["at"][-1] - params["mstart"]  # the principal's place in the region
    for j in range(len(chunks)):
        # moved next to, over and into the principal
        for spec in (((), m, m), ((), m + 1, m + 1), ((), m, m + 1), ((), max(m - 1, 0), m + 1),
                     ((m, 0), 0, 0)):
            yield dict(params, chunks=chunks[:j] + (spec,) + chunks[j + 1 :])


def _prod_r_mutants(s, params):
    yield params
    for split in (-1, params["split"] - 1, params["split"] + 1, len(s.antecedent.items) + 1):
        yield {"split": split}


def _dprod_r_mutants(params):
    level, start, end = params["excise"]
    yield params
    # the same width one item to each side: often the slice at another gap
    for d in (-1, 1):
        yield {"excise": (level, start + d, end + d)}
    for lvl in _level_mutants(level):
        yield {"excise": (lvl, start, end)}


def _subgoals(monkeypatch):
    """The nodes of the generated derivations and every subgoal that the
    search visits from their end-sequents and from shuffled copies."""
    found = {}

    def enumerate_and_record(s, only_rule=None):
        found.setdefault(_seq_key(s), s)
        return enumerate_rule_instances(s, only_rule)

    with monkeypatch.context() as patch:
        patch.setattr(hseq, "enumerate_rule_instances", enumerate_and_record)
        for s in search_corpus():
            prove_all(s, limit=16)
    for d in generate_derivations(random.Random(17), GENERATED_ATOMS, 60):
        stack = [d]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            found.setdefault(_seq_key(node.conclusion), node.conclusion)
    return list(found.values())


# sort-3 arguments, which the generated derivations do not reach: DownL at
# k = 1, 2 and 3 with chunks on both sides of the principal, DProdR at gap 2
WIDE_SIG = Signature.from_text("a 0\nb 2\nc 3\ne 1\n")
WIDE = (
    "a, (c !2 b), a => a",
    "0:e,a,1:e, (c !1 b), a, a => a",
    "a, 0:e,[],1:e, (c !3 b) => e",
    "a, (c !2 b), 0:e,a,1:e => a",
    "0:b,a,1:b,[],2:b, (c !2 b), a => e",
    "[], (c !2 b), [] => b",
    "0:c,[],1:c,a,2:c,[],3:c => (c @2 a)",
    "0:b,[],1:b,0:e,[],1:e,2:b => (b @2 e)",
)


def _candidates(s, rule):
    side, connective, candidates, _ = RULES[rule]
    if side == "R":
        return candidates(s.antecedent, s.succedent) if isinstance(s.succedent, connective) else ()
    return [
        params
        for addr, item in iter_items(s.antecedent)
        if not isinstance(item, Separator) and isinstance(item.type, connective)
        for params in candidates(s.antecedent, addr, item)
    ]


# each rule that REFERENCE_PREMISES replaces, but the axioms: (mutants of
# a candidate's parameters, given the sequent and the candidate)
MUTANTS = {
    "ProdR": _prod_r_mutants,
    "DProdR": lambda s, params: _dprod_r_mutants(params),
    "UnderL": _region_mutants,
    "OverL": _region_mutants,
    "UpL": _region_mutants,
    "DownL": _down_l_mutants,
}


def test_region_rules_and_axioms_agree_with_the_parent_definitions(monkeypatch):
    cases = []
    for s in _subgoals(monkeypatch) + [parse_hsequent(text, WIDE_SIG) for text in WIDE]:
        cases += [(s, rule, {}) for rule in ("Id", "IR", "JR")]
        for rule, mutants in MUTANTS.items():
            for params in _candidates(s, rule):
                cases += [(s, rule, m) for m in mutants(s, params)]
    cases += [(seq(text), rule, {}) for text in ("Lambda => I", "[] => J", "0:e,[],1:e => e")
              for rule in ("Id", "IR", "JR")]
    now = [_premises(*case) for case in cases]
    for rule, premises in REFERENCE_PREMISES.items():
        monkeypatch.setitem(hseq.RULES, rule, hseq.RULES[rule][:3] + (premises,))
    parent = [_premises(*case) for case in cases]
    assert now == parent
    outcomes = Counter((rule, p is None) for (_, rule, _), p in zip(cases, now))
    for rule in REFERENCE_PREMISES:
        assert outcomes[rule, False] and outcomes[rule, True], rule


def test_down_l_chunks_come_in_one_flat_order():
    # the parent split the specs at the principal and ordered each side on
    # its own, so it also took a right chunk listed before a left one
    sig = Signature.from_text("a 0\nb 2\nc 3\n")
    s = parse_hsequent("a, (c !2 b), a => a", sig)
    params = {"at": (1,), "mstart": 0, "mend": 3, "chunks": (((), 0, 1), ((), 2, 3))}
    swapped = dict(params, chunks=params["chunks"][::-1])
    premises = instance_premises(s, "DownL", params)
    assert [str(p) for p in premises] == ["[],[],[] => c", "0:b,a,1:b,a,2:b => a"]
    assert _down_l(s.antecedent, s.succedent, (1,), s.antecedent.items[1], swapped) == premises
    with pytest.raises(InstanceError, match="chunks not in flat order"):
        instance_premises(s, "DownL", swapped)


NEGATIVE_SIG = Signature.from_text("a 0\nb 0\ne 1\n")


def test_negative_addresses_are_rejected():
    s = parse_hsequent("0:e,I,1:e => (e @1 a)", NEGATIVE_SIG)
    premise = instance_premises(s, "IL", {"at": (0, 0, 0)})
    assert [str(p) for p in premise] == ["0:e,1:e => e@1a"]
    # the parent read -1 from the end and built 0:e,1:e,0:e,I,1:e => e@1a
    with pytest.raises(InstanceError):
        instance_premises(s, "IL", {"at": (-1, 0, 0)})


def test_check_rejects_an_il_node_at_a_negative_address():
    conclusion = parse_hsequent("0:e,I,1:e => (e@1I).(e@1I)", NEGATIVE_SIG)
    wrong = prove(parse_hsequent("0:e,1:e,0:e,I,1:e => (e@1I).(e@1I)", NEGATIVE_SIG))
    assert prove(conclusion) is None and wrong is not None and check(wrong)
    node = HDerivation("IL", conclusion, (wrong,), (("at", (-1, 0, 0)),))
    assert first_violation(node, check_node) is node


def test_check_rejects_a_cut_at_a_negative_address():
    left = prove(parse_hsequent("b => b", NEGATIVE_SIG))
    right = prove(parse_hsequent("0:e,b,1:e => (e @1 b)", NEGATIVE_SIG))
    good = HDerivation("Cut", right.conclusion, (left, right), (("at", (0, 0, 0)),))
    assert check(good)
    duplicated = parse_hsequent("0:e,b,1:e,0:e,b,1:e => (e @1 b)", NEGATIVE_SIG)
    bad = HDerivation("Cut", duplicated, (left, right), (("at", (-1, 0, 0)),))
    assert first_violation(bad, check_node) is bad


def test_check_rejects_ill_typed_params():
    under = must_prove("n, (n \\ s) => s")
    assert under.rule == "UnderL"
    for bad in ({"at": "x"}, {"at": None}, {"chunks": 5}):
        params = tuple(sorted(dict(under.params, **bad).items()))
        assert not check(HDerivation("UnderL", under.conclusion, under.premises, params))
    prod = must_prove("a, c => (a . c)")
    assert prod.rule == "ProdR"
    assert not check(HDerivation("ProdR", prod.conclusion, prod.premises, (("split", "1"),)))
    step = structural_step(MDerivation("Id", parse_msequent("b -> b", SIG)),
                           RuleApp("UnitJ-i-add", (), (("i", 2),)))
    assert check_m(step)
    params = tuple(sorted(dict(step.params, indices=(("i", "x"),)).items()))
    assert not check_m(MDerivation("Structural", step.conclusion, step.premises, params))


# ---------------------------------------------------------------------------
# serialization and rendering


def test_derivation_json_round_trip():
    d = must_prove("0:e,a,1:e => (e @1 a)")
    obj = derivation_to_obj(d)
    assert set(obj) == {"rule", "sequent", "params", "premises"}
    assert derivation_from_obj(obj, SIG) == d
    text = json.dumps(obj, indent=2, sort_keys=True)
    assert json.loads(text) == obj


def test_renderings_mention_the_rules():
    d = must_prove("n, (n \\ s) => s")
    text = derivation_text(d)
    assert "UnderL" in text and "Id" in text
    latex = derivation_latex(d)
    assert "\\infer" in latex or "\\frac" in latex


def test_sequent_str_round_trip():
    for text in ("a => a", "n, (n \\ s) => s", "0:e,a,1:e => (e @1 a)"):
        s = seq(text)
        assert parse_hsequent(str(s), SIG) == s


# ---------------------------------------------------------------------------
# forward-generated derivations all check


def test_generated_derivations_check():
    rng = random.Random(17)
    ds = generate_derivations(rng, GENERATED_ATOMS, 60)
    assert len(ds) == 60
    for d in ds:
        assert check(d)
        assert 2 <= hderivation_depth(d) <= 5


# ---------------------------------------------------------------------------
# the count invariant prunes search without changing what it finds


def _nodes(d):
    stack = [d]
    while stack:
        node = stack.pop()
        stack.extend(node.premises)
        yield node


def test_every_derivation_node_is_balanced():
    ds = generate_derivations(random.Random(17), GENERATED_ATOMS, 60)
    ds.append(must_prove("n => (s / (n \\ s))"))
    rules = set()
    for d in ds:
        for node in _nodes(d):
            rules.add(node.rule)
            assert _balanced(_seq_key(node.conclusion)), str(node.conclusion)
    assert rules == set(RULES)


Q = "((s ^1 n) !1 s)"
TV = "((n \\ s) / n)"
SV = "((n \\ s) / s)"
FAILING_FAMILY = ", ".join([Q] + [TV, Q] * 5) + " => s"
PROVABLE_FAMILY = ", ".join(["n", SV] * 4 + [Q, TV, Q]) + " => s"


def search_corpus():
    """End-sequents of generated derivations, each also with one atom too
    many and with its antecedent items shuffled."""
    ends = [d.conclusion for d in generate_derivations(random.Random(17), GENERATED_ATOMS, 60)]
    p = Leaf0(Atom("p", 0))
    # one atom too many: never balanced, so the check decides these at the root
    extra = [HSequent(HyperConfig(s.antecedent.items + (p,)), s.succedent) for s in ends]
    # reordered: still balanced but often unprovable, so the search decides
    rng = random.Random(5)
    shuffled = []
    for s in ends:
        items = list(s.antecedent.items)
        rng.shuffle(items)
        shuffled.append(HSequent(HyperConfig(tuple(items)), s.succedent))
    assert not any(_balanced(_seq_key(s)) for s in extra)
    assert any(prove(s) is None for s in shuffled)
    return ends + extra + shuffled


def test_pruned_search_agrees_with_the_plain_search(monkeypatch):
    sequents = search_corpus()
    pruned = [(prove(s), prove_all(s, limit=4)) for s in sequents]
    monkeypatch.setattr(hseq, "_balanced", lambda key: True)
    plain = [(prove(s), prove_all(s, limit=4)) for s in sequents]
    assert pruned == plain


def test_search_agrees_with_the_reference_searches():
    sequents = search_corpus() + [seq(FAILING_FAMILY), seq(PROVABLE_FAMILY)]
    for s in sequents:
        assert prove(s) == reference_prove(s), str(s)
        for limit in (1, 4, 16):
            assert prove_all(s, limit=limit) == reference_prove_all(s, limit=limit), str(s)


def test_rule_instances_never_repeat(monkeypatch):
    # why the search keeps every derivation it builds: distinct instances
    # give distinct derivations, so no subgoal's list can hold one twice.
    # The corpus visits 336 subgoals with 1,965 instances.
    visited = set()

    def enumerate_once(s):
        found = list(enumerate_rule_instances(s))
        instances = [(rule, params) for rule, params, _ in found]
        assert len(set(instances)) == len(instances), str(s)
        visited.add(_seq_key(s))
        return found

    monkeypatch.setattr(hseq, "enumerate_rule_instances", enumerate_once)
    for s in search_corpus() + [seq(FAILING_FAMILY), seq(PROVABLE_FAMILY)]:
        prove_all(s, limit=16)
    assert len(visited) > 300


def test_failing_search_at_the_baseline_size():
    s = seq(FAILING_FAMILY)
    start = time.perf_counter()
    assert prove(s) is None
    assert time.perf_counter() - start < 5


def test_prove_all_at_the_baseline_size():
    s = seq(PROVABLE_FAMILY)
    start = time.perf_counter()
    found = prove_all(s, limit=16)
    assert time.perf_counter() - start < 5
    assert len(found) == 16
    assert all(check(d) for d in found)
