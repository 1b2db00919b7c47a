"""The hypersequent presentation: rule instances, checking, proof search."""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import time
import weakref
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcalc import cli, hseq, mseq
from dcalc.bridge import lift
from dcalc.derivation import Derivation, first_violation, json_text, params_from_obj, violation_reason
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
    prove_each,
)
from dcalc.mseq import (
    MDerivation,
    MSequent,
    check_m,
    check_m_node,
    m_derivation_from_obj,
    m_derivation_to_obj,
    m_instance_premises,
    parse_msequent,
    structural_step,
)
from dcalc.syntax import (
    Atom,
    HyperConfig,
    Leaf0,
    ParseError,
    Separator,
    Signature,
    atom_counts,
    config_at,
    figure,
    iter_items,
    parse_type,
)
from dcalc.terms import Cat, ConstI, RuleApp, WrapT, replace_at, subterm_at

import golden_defs
from helpers import (
    REFERENCE_PREMISES,
    _down_l,
    generate_derivations,
    hderivation_depth,
    json_subtree_count,
    parent_parse_hsequent,
    random_config,
    reference_apply_chunks,
    reference_atom_counts,
    reference_balanced,
    reference_first_violation,
    reference_prove,
    reference_prove_all,
)

SIG = Signature.from_text("a 0\nb 2\nc 0\nd 2\ne 1\nn 0\ns 0\n")
GENERATED_ATOMS = (("p", 0), ("q", 0), ("r", 1), ("s", 2))
TOY_LEX = os.path.join(golden_defs.GOLDEN_DIR, "toy.lex")


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
    # check_node returns False here; a raise would give its own text
    assert violation_reason(bad, check_node) == "the premises do not follow by the rule"
    wrong = HDerivation("Id", d.conclusion, d.premises)
    assert violation_reason(wrong, check_node) == "the antecedent does not fit the axiom"


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
    candidates = hseq._candidates

    def candidates_and_record(s, only_rule=None):
        found.setdefault(_seq_key(s), s)
        return candidates(s, only_rule)

    sequents = search_corpus()  # before the patch: the generator enumerates too
    with monkeypatch.context() as patch:
        patch.setattr(hseq, "_candidates", candidates_and_record)
        for s in sequents:
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
        found = candidates(s.antecedent, s.succedent) if isinstance(s.succedent, connective) else ()
    else:
        found = [
            candidate
            for addr, item in iter_items(s.antecedent)
            if not isinstance(item, Separator) and isinstance(item.type, connective)
            for candidate in candidates(s.antecedent, addr, item)
        ]
    return [params for params, _ in found]


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


def test_params_of_the_wrong_type_raise_instance_error():
    # a string or float split raised TypeError; a Boolean passed as 0 or 1
    # and built the premises, so check accepted the node
    prod = must_prove("a, c => (a . c)")
    under = must_prove("n, (n \\ s) => s")
    assert (prod.rule, under.rule) == ("ProdR", "UnderL")
    for d, bad in (
        (prod, {"split": "1"}),
        (prod, {"split": 1.0}),
        (prod, {"split": True}),
        (under, {"at": (True,), "mstart": False}),
        (under, {"chunks": (((), 0.0, 0),)}),
    ):
        params = dict(d.params, **bad)
        with pytest.raises(InstanceError):
            instance_premises(d.conclusion, d.rule, params)
        assert not check(HDerivation(d.rule, d.conclusion, d.premises, tuple(sorted(params.items()))))
    assert instance_premises(prod.conclusion, "ProdR", {"split": 1}) == tuple(
        p.conclusion for p in prod.premises
    )
    # read from JSON, a Boolean or float parameter is a ParseError
    for params in ({"split": True}, {"split": 1.0}, {"at": [True]}, {"chunks": [[[], 0, 1.0]]}):
        with pytest.raises(ParseError):
            derivation_from_obj(dict(derivation_to_obj(under), params=params), SIG)
    assert derivation_from_obj(derivation_to_obj(under), SIG) == under
    left = prove(parse_hsequent("b => b", NEGATIVE_SIG))
    right = prove(parse_hsequent("0:e,b,1:e => (e @1 b)", NEGATIVE_SIG))
    cut = HDerivation("Cut", right.conclusion, (left, right), (("at", (False, 0, 0)),))
    assert first_violation(cut, check_node) is cut
    # md: the addresses (False,) and (0.0,) passed as (0,)
    m = parse_msequent("((n + (n \\ s)) + I) -> s", SIG)
    premises = tuple(MDerivation("Id", p) for p in m_instance_premises(m, "UnderL", {"at": (0,)}))
    for at in ((False,), (0.0,)):
        with pytest.raises(InstanceError):
            m_instance_premises(m, "UnderL", {"at": at})
        with pytest.raises(InstanceError):
            check_m_node(MDerivation("UnderL", m, premises, (("at", at),)))
    assert check_m_node(MDerivation("UnderL", m, premises, (("at", (0,)),)))
    cut = (premises[0], MDerivation("Id", m))
    assert check_m_node(MDerivation("Cut", m, cut, (("at", (0, 0)),)))
    with pytest.raises(InstanceError):
        check_m_node(MDerivation("Cut", m, cut, (("at", (False, 0)),)))
    start = MDerivation("Id", parse_msequent("n -> n", SIG))
    step = structural_step(structural_step(start, RuleApp("UnitI-L-add", ())), RuleApp("UnitI-L-add", (1,)))
    assert check_m(step)
    params = tuple(sorted(dict(step.params, at=(True,)).items()))
    node = MDerivation("Structural", step.conclusion, step.premises, params)
    assert first_violation(node, check_m_node) is node


def test_check_m_rejects_forged_structural_conclusions():
    # a lifted derivation whose Structural steps pass below wraps of sort-2
    # left operands; each forged conclusion is the true rewrite result with
    # one thing changed off the redex, so only the exact step check sees it
    md = lift(must_prove("0:b,a,1:b,c,2:b => ((b @1 a) @1 c)"))
    assert check_m(md)
    stack, steps = [md], []
    while stack:
        node = stack.pop()
        stack += node.premises
        if node.rule == "Structural" and node.params_dict()["at"]:
            steps.append(node)
    forged = Counter()
    for node in steps:
        at, u = node.params_dict()["at"], node.conclusion.antecedent
        # an off-path sibling replaced by a different term with the same image
        sibling = at[:-1] + (1 - at[-1],)
        sub = subterm_at(u, sibling)
        variants = [("sibling", replace_at(u, sibling, Cat(sub, ConstI())))]
        # a spine wrap's index changed, which keeps its sort
        for depth in range(len(at)):
            wrap = subterm_at(u, at[:depth])
            if isinstance(wrap, WrapT) and wrap.left.sort >= 2:
                i = 2 if wrap.i == 1 else 1
                variants.append(("index", replace_at(u, at[:depth], WrapT(i, wrap.left, wrap.right))))
        for kind, v in variants:
            assert v != u
            bad = MDerivation("Structural", MSequent(v, node.conclusion.succedent), node.premises, node.params)
            assert not check_m_node(bad), (kind, node.params)
            assert first_violation(bad, check_m_node) is bad
            forged[kind] += 1
    assert forged["sibling"] > 0 and forged["index"] > 0, forged


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
# one read parses each distinct entry and succedent text once


AMBIGUOUS_LEXICON = "%% signature\nn 0\n%% lexicon\nx\tn\nx\t(n / n)\nx\t(n \\ n)\n"


def _json_derivations(tmp_path):
    """(JSON object, signature) pairs: dcalc parse on the toy lexicon and on
    x^k with x read as n, n/n and n\\n, prove on a few sequents, and the
    forward-generated derivations of criterion 7."""
    out = []
    amb = tmp_path / "amb.lex"
    amb.write_text(AMBIGUOUS_LEXICON)
    for lexicon, sentence, goal in (
        (TOY_LEX, "john sees mary", "s"),
        (TOY_LEX, "john walks", "s"),
        (str(amb), "x x x", "n"),
        (str(amb), "x x x x", "n"),
    ):
        sig, _ = cli.load_lexicon(lexicon)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.main(["parse", lexicon, sentence, goal, "--out", "json"])
        out += [(obj, sig) for obj in json.loads(text.getvalue())["derivations"]]
    for text in ("0:e,a,1:e => (e @1 a)", "n, (n \\ s) / n, n => s", "0:b,a,1:b,[],2:b => (b @1 a)"):
        out.append((derivation_to_obj(must_prove(text)), SIG))
    ds = generate_derivations(random.Random(707), GENERATED_ATOMS, 200)
    gen_sig = Signature(dict(GENERATED_ATOMS))
    return out + [(derivation_to_obj(d), gen_sig) for d in ds]


def _parent_read(obj, sig):
    premises = tuple(_parent_read(p, sig) for p in obj["premises"])
    seq = parent_parse_hsequent(obj["sequent"], sig)
    return Derivation(obj["rule"], seq, premises, params_from_obj(obj["params"]))


def _entries_and_types(d):
    """Each Leaf0 item of an antecedent, and each type at the top of an
    item or a succedent, over every node of d."""
    leaves, types = [], []
    stack = [d]
    while stack:
        node = stack.pop()
        stack.extend(node.premises)
        types.append(node.conclusion.succedent)
        for _, item in iter_items(node.conclusion.antecedent):
            if not isinstance(item, Separator):
                types.append(item.type)
                if isinstance(item, Leaf0):
                    leaves.append(item)
    return leaves, types


def test_a_read_agrees_with_the_parent_parser_and_shares_equal_entries(tmp_path):
    cases = _json_derivations(tmp_path)
    assert len(cases) > 220
    amb = [d for d, sig in cases if "n/n" in d["sequent"] or "n\\n" in d["sequent"]]
    assert len(amb) >= 10
    shared = 0
    for obj, sig in cases:
        d = derivation_from_obj(obj, sig)
        assert d == _parent_read(obj, sig)
        # equal subtrees are one node, which check visits once
        nodes = {id(node): node for node in _nodes(d)}
        assert len(nodes) == json_subtree_count(obj)
        shared += len(nodes) < sum(1 for _ in _nodes(d))
        visits = []
        assert first_violation(d, lambda node: visits.append(id(node)) or check_node(node)) is None
        assert sorted(visits) == sorted(nodes)
        for group in _entries_and_types(d):  # equal ones are one object
            first = {}
            assert all(first.setdefault(x, x) is x for x in group)
    assert shared >= 40


def test_two_reads_share_no_object(tmp_path):
    for obj, sig in _json_derivations(tmp_path)[::7]:
        one, two = derivation_from_obj(obj, sig), derivation_from_obj(obj, sig)
        assert one == two
        ids = {id(x) for group in _entries_and_types(one) for x in group}
        assert not ids & {id(x) for group in _entries_and_types(two) for x in group}


def _occurrences(obj):
    """The paths of the nodes of a derivation's JSON object, grouped by
    their subtree's JSON text."""
    paths = {}
    stack = [(obj, ())]
    while stack:
        node, path = stack.pop()
        paths.setdefault(json.dumps(node, sort_keys=True), []).append(path)
        stack.extend((p, path + (n,)) for n, p in enumerate(node["premises"]))
    return list(paths.values())


def test_a_shared_read_rejects_what_a_tree_read_rejects(tmp_path):
    # one occurrence of a subtree changed: the read shares the rest, and
    # check must find the node and reason that it finds in a plain tree
    cases = _json_derivations(tmp_path)
    texts = {}  # each signature's end-sequent texts
    for obj, sig in cases:
        texts.setdefault(id(sig), []).append(obj["sequent"])
    rng = random.Random(32)
    repeats, verdicts = Counter(), Counter()
    for obj, sig in cases[::3]:
        groups = _occurrences(obj)
        repeated = [paths for paths in groups if len(paths) > 1] or groups
        for paths in (rng.choice(repeated) for _ in range(4)):
            path = rng.choice(paths)  # the first occurrence read, or a later one
            mutant = json.loads(json.dumps(obj))
            node = mutant
            for n in path:
                node = node["premises"][n]
            kind = rng.choice(("sequent", "rule", "params", "premises"))
            if kind == "sequent":
                node["sequent"] = rng.choice(texts[id(sig)])
            elif kind == "rule":
                node["rule"] = rng.choice(sorted(RULES) + ["Cut", "Nope"])
            elif kind == "params":
                node["params"] = rng.choice(({}, {"at": [0]}, {"at": "x"}, {"at": {"x": 0}}, {"k": 1}))
            else:
                node["premises"] = node["premises"][1:] if node["premises"] else [dict(node)]
            shared, tree = derivation_from_obj(mutant, sig), _parent_read(mutant, sig)
            bad, want = first_violation(shared, check_node), reference_first_violation(tree, check_node)
            assert check(shared) == check(tree) == (want is None)
            if want is not None:
                assert bad == want
                assert violation_reason(bad, check_node) == violation_reason(want, check_node)
            repeats[len(paths) > 1] += 1
            verdicts[want is None] += 1
    assert repeats[True] > 150 and verdicts[False] > 100 and verdicts[True] > 0, (repeats, verdicts)


# Valid sequents that put every entry the test below writes, and its
# succedents, into a read's table before the node under test is read.
FILLERS = (
    "n => n", "s => s", "n\\s => n\\s", "(n\\s)/n => (n\\s)/n", "I => I",
    "0:e,[],1:e => e", "0:e,n,1:e => s", "[],[] => b", "Lambda => I",
)


@settings(max_examples=400, deadline=None)
@given(
    entries=st.lists(st.sampled_from(("n", "s", "n\\s", "(n\\s)/n", "I", "[]")), min_size=1, max_size=5),
    wrap=st.booleans(),
    sep=st.sampled_from((",", ", ", " ,", ",\t")),
    arrow=st.sampled_from((" => ", "=>", "\t=>  ")),
    corruption=st.sampled_from(
        ("none", "doubled comma", "no arrow", "md arrow", "trailing token", "Lambda later")
    ),
    bad=st.sampled_from(("", "", "$", "\n")),
    where=st.integers(0, 60),
)
def test_a_read_fails_as_the_sequent_parser_does(entries, wrap, sep, arrow, corruption, bad, where):
    # a sequent of the right sort, whitespace varied, then at most one fault
    # and perhaps a character that starts no token
    items = ["0:e"] + entries + ["1:e"] if wrap else list(entries)
    succ = {0: "s", 1: "e", 2: "b"}.get(entries.count("[]"), "s")
    if corruption == "Lambda later":
        items.insert(1 + where % len(items), "Lambda")
    arrow = {"no arrow": " ", "md arrow": " -> "}.get(corruption, arrow)
    text = sep.join(items) + arrow + succ + (" n" if corruption == "trailing token" else "")
    if corruption == "doubled comma":
        text = text.replace(sep, sep + ",", 1)
    text = text[: where % len(text)] + bad + text[where % len(text) :]
    node = {"rule": "Id", "sequent": text, "params": {}, "premises": []}
    fillers = [{"rule": "Id", "sequent": f, "params": {}, "premises": []} for f in FILLERS]
    obj = dict(fillers[0], premises=fillers[1:] + [node])

    def outcome(read):
        try:
            return "ok", read()
        except ParseError as exc:
            return "error", str(exc)

    alone = outcome(lambda: parse_hsequent(text, SIG))
    assert alone == outcome(lambda: parent_parse_hsequent(text, SIG))
    read = outcome(lambda: derivation_from_obj(obj, SIG))
    if alone[0] == "ok":
        assert read[0] == "ok" and read[1].premises[-1].conclusion == alone[1]
    else:
        assert read == alone, text


@pytest.mark.parametrize("text", (
    " => I", "Lambda => I", " Lambda\t=>I", "Lambda, n => n", "n, Lambda => n", "n, => n", ", n => n",
    "(n, s) => s", "n => n => n", "n => n =>", "n -> n", "n, n\\s -> s => s", "n =>> n",
    "n\n, n\\s => s", "n, n\\s => s\n", "n, n\\s => \ns",
))
def test_a_read_at_the_split_points_fails_as_the_sequent_parser_does(text):
    # the texts where a split at the arrow and the commas could go wrong:
    # an empty or Lambda part, a comma or arrow inside a part, and a newline,
    # which the blanks stripped around a part do not include
    fillers = [{"rule": "Id", "sequent": f, "params": {}, "premises": []} for f in FILLERS]
    node = {"rule": "Id", "sequent": text, "params": {}, "premises": []}
    obj = dict(fillers[0], premises=fillers[1:] + [node])

    def outcome(read):
        try:
            return "ok", read()
        except ParseError as exc:
            return "error", str(exc)

    alone = outcome(lambda: parse_hsequent(text, SIG))
    assert alone == outcome(lambda: parent_parse_hsequent(text, SIG))
    read = outcome(lambda: derivation_from_obj(obj, SIG))
    if alone[0] == "ok":
        assert read[0] == "ok" and read[1].premises[-1].conclusion == alone[1]
    else:
        assert read == alone


def test_a_read_names_a_missing_or_retyped_node_field():
    # a missing rule or sequent raised a bare KeyError naming the field.
    # Each node field with the JSON kind its value must have, and a value of
    # every JSON kind
    fields = {"rule": "string", "sequent": "string", "params": "object", "premises": "list"}
    values = {"string": "x", "object": {}, "list": [], "number": 5, "float": 1.5, "bool": True, "null": None}
    d = prove(parse_hsequent("n, (n \\ s) => s", SIG))
    for calculus, obj, read in (
        ("hd", derivation_to_obj(d), derivation_from_obj),
        ("md", m_derivation_to_obj(lift(d)), m_derivation_from_obj),
    ):
        assert obj["premises"], calculus
        for node in (obj, obj["premises"][0]):
            for name, kind in fields.items():
                value = node.pop(name)
                for change in ("missing", *(other for other in values if other != kind)):
                    if change != "missing":
                        node[name] = values[change]
                    try:
                        read(obj, SIG)
                    except ParseError as exc:
                        assert str(exc) == "%s must be a JSON %s" % (name, kind), (calculus, name, change)
                    else:  # only a missing params or premises has a default
                        assert change == "missing" and name in ("params", "premises"), (calculus, name)
                node[name] = value
        assert read(obj, SIG) == (d if calculus == "hd" else lift(d))


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


def _types(sequents):
    """Every type of the sequents, subtypes included, each before its
    operands."""
    stack = []
    for s in sequents:
        stack.append(s.succedent)
        stack += [item.type for _, item in iter_items(s.antecedent) if not isinstance(item, Separator)]
    while stack:
        t = stack.pop()
        yield t
        if hasattr(t, "left"):
            stack += (t.right, t.left)


def test_stored_atom_counts_equal_the_reference_counts():
    # each type is asked before its operands, so its count walks down to
    # the subtypes that the corpus's searches counted and adds what they store
    ds = generate_derivations(random.Random(17), GENERATED_ATOMS, 60)
    sequents = search_corpus() + [node.conclusion for d in ds for node in _nodes(d)]
    classes = set()
    for t in _types(sequents):
        classes.add(type(t).__name__)
        assert atom_counts(t) == reference_atom_counts(t), str(t)
    assert classes == {"Atom", "UnitI", "UnitJ", "Prod", "Under", "Over", "DProd", "DDown", "DUp"}
    verdicts = [_balanced(_seq_key(s)) for s in sequents]
    assert verdicts == [reference_balanced(_seq_key(s)) for s in sequents]
    assert True in verdicts and False in verdicts


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
    skipped = []
    candidates = hseq._candidates

    def candidates_and_count(s, only_rule=None):
        for rule, params, fits in candidates(s, only_rule):
            skipped.append(not fits)
            yield rule, params, fits

    with monkeypatch.context() as patch:
        patch.setattr(hseq, "_candidates", candidates_and_count)
        pruned = [(prove(s), prove_all(s, limit=4)) for s in sequents]
    assert any(skipped) and not all(skipped)
    # the plain search checks no counts: not at the root, and it builds and
    # searches every candidate's premises
    monkeypatch.setattr(hseq, "_balanced", lambda key: True)
    monkeypatch.setattr(hseq, "_cancels", lambda counts: True)
    plain = [(prove(s), prove_all(s, limit=4)) for s in sequents]
    assert pruned == plain


def test_count_verdicts_equal_the_premises_balance(monkeypatch):
    # the candidates' running sums decide fits for the minor premise alone;
    # on a balanced conclusion that is the verdict on all of its premises
    sequents = {}
    search = hseq._search

    def collecting(s, limit, memo):
        sequents.setdefault(_seq_key(s), s)
        return search(s, limit, memo)

    with monkeypatch.context() as patch:
        patch.setattr(hseq, "_search", collecting)
        for s in search_corpus():
            prove_all(s, limit=4)
    for d in generate_derivations(random.Random(17), GENERATED_ATOMS, 60):
        for node in _nodes(d):
            sequents.setdefault(_seq_key(node.conclusion), node.conclusion)
    verdicts = Counter()
    for key, s in sequents.items():
        assert reference_balanced(key), str(s)
        for rule, params, fits in hseq._candidates(s):
            premises = hseq._built_premises(s, rule, params)
            if premises is not None:
                assert fits == all(reference_balanced(_seq_key(p)) for p in premises), (str(s), rule, params)
                verdicts[rule, fits] += 1
    both = {rule for rule, fits in verdicts if fits and (rule, False) in verdicts}
    assert both == {"UnderL", "OverL", "DownL", "UpL", "ProdR", "DProdR"}


def test_search_agrees_with_the_reference_searches():
    sequents = search_corpus() + [seq(FAILING_FAMILY), seq(PROVABLE_FAMILY)]
    for s in sequents:
        assert prove(s) == reference_prove(s), str(s)
        for limit in (1, 4, 16):
            assert prove_all(s, limit=limit) == reference_prove_all(s, limit=limit), str(s)


X_TYPES = tuple(parse_type(t, SIG) for t in ("n", "(n / n)", "(n \\ n)"))


def _x_sequents(k_max):
    """The sequent of each lexical assignment of x^k => n, k <= k_max, with
    the x of AMBIGUOUS_LEXICON."""
    return [
        HSequent(HyperConfig(tuple(item for t in types for item in figure(t).items)), X_TYPES[0])
        for k in range(k_max + 1)
        for types in product(X_TYPES, repeat=k)
    ]


def test_prove_each_is_prove_all_of_each_sequent(monkeypatch):
    for sequents in (_x_sequents(6), search_corpus()):
        for limit in (1, 16):
            assert prove_each(iter(sequents), limit) == [prove_all(s, limit) for s in sequents]
    assert prove_each((), 1) == []
    for bad in (0, -1):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            prove_all(seq("n => n"), limit=bad)
    # the assignments share one memo: each subgoal is searched once
    searched = []
    search = hseq._search

    def counting(s, limit, memo):
        if _seq_key(s) not in memo:
            searched.append(_seq_key(s))
        return search(s, limit, memo)

    monkeypatch.setattr(hseq, "_search", counting)
    sequents = _x_sequents(5)
    prove_each(sequents, 16)
    assert len(searched) == len(set(searched))
    together = len(searched)
    searched.clear()
    for s in sequents:
        prove_all(s, 16)
    assert together < len(searched) / 3


def test_rule_instances_never_repeat(monkeypatch):
    # why the search keeps every derivation it builds: distinct instances
    # give distinct derivations, so no subgoal's list can hold one twice.
    # The search tries the candidates that fit; the corpus visits 336
    # subgoals and tries 2,288 candidates there, 1,519 of which build.
    visited = set()
    candidates = hseq._candidates

    def candidates_once(s, only_rule=None):
        found = list(candidates(s, only_rule))
        tried = [(rule, tuple(sorted(params.items()))) for rule, params, fits in found if fits]
        assert len(set(tried)) == len(tried), str(s)
        visited.add(_seq_key(s))
        return found

    sequents = search_corpus() + [seq(FAILING_FAMILY), seq(PROVABLE_FAMILY)]
    monkeypatch.setattr(hseq, "_candidates", candidates_once)
    for s in sequents:
        prove_all(s, limit=16)
    assert len(visited) > 300


def test_prove_all_leaves_nothing_for_the_cycle_collector():
    # the search's memo lives in its calls' frames, so with the cycle
    # collector off, dropping the result frees every node of it
    s = seq("(n . (n . n)) => ((n . n) . n)")
    gc.collect()
    gc.disable()
    try:
        found = [prove(s)] + prove_all(s, limit=16)
        refs = [weakref.ref(node) for d in found for node in _nodes(d)]
        assert len(refs) >= 10
        del found
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _checked_corpus():
    """prove results of the search corpus and generated derivations, each
    with its lift: (derivation, the single-node check of its calculus)."""
    hd = [d for d in map(prove, search_corpus()) if d is not None]
    hd += generate_derivations(random.Random(23), GENERATED_ATOMS, 40)
    return [(d, check_node) for d in hd] + [(lift(d), check_m_node) for d in hd]


def _with_node_replaced(d, old, new):
    """d with every occurrence of the node old replaced by new; the
    subtrees that do not contain old are kept, not copied."""
    built = {}
    for node in reversed(list(_nodes(d))):  # each node after its premises
        if id(node) in built:
            continue
        premises = tuple(built.get(id(p), p) for p in node.premises)
        if node is old:
            built[id(node)] = new
        elif any(a is not b for a, b in zip(premises, node.premises)):
            built[id(node)] = Derivation(node.rule, node.conclusion, premises, node.params)
    return built.get(id(d), d)


def _agrees_with_the_reference(d, node_ok):
    expected = reference_first_violation(d, node_ok)
    assert first_violation(d, node_ok) is expected
    assert first_violation(d, node_ok) is expected  # the second call reads stored verdicts
    return expected


def test_stored_verdicts_find_the_reference_violation():
    # the plain walk is the oracle: on valid derivations, on mutants built
    # over subtrees that already passed, and across the two checks
    kinds = Counter()
    for d, node_ok in _checked_corpus():
        assert _agrees_with_the_reference(d, node_ok) is None
        assert d._checked is node_ok
        other = check_m_node if node_ok is check_node else check_node
        # a verdict is stored per check: the other calculus's check still
        # walks the tree, and rejects some node of it
        assert _agrees_with_the_reference(d, other) is not None
        assert _agrees_with_the_reference(d, node_ok) is None
        seen = Counter(id(node) for node in _nodes(d))
        # every distinct node but the Structural steps of a lift, which
        # would make the test quadratic in the long rewrite chains
        for node in {id(node): node for node in _nodes(d) if node.rule != "Structural"}.values():
            # an extra premise, itself a checked subtree, rejects the node
            # but keeps its conclusion, so its parents still pass
            bad = Derivation(node.rule, node.conclusion, node.premises + (d,), node.params)
            mutant = _with_node_replaced(d, node, bad)
            assert _agrees_with_the_reference(mutant, node_ok) is bad
            kinds["shared" if seen[id(node)] > 1 else "above checked" if node.premises else "leaf"] += 1
    assert min(kinds["shared"], kinds["above checked"], kinds["leaf"]) > 0, kinds


def test_check_visits_each_distinct_node_once(monkeypatch):
    visits = []

    def counting(check_one):
        def node_ok(node):
            visits.append(id(node))
            return check_one(node)

        return node_ok

    shared = 0
    for d in filter(None, map(prove, search_corpus())):
        distinct = {id(node) for node in _nodes(d)}
        if len(distinct) < len(list(_nodes(d))):
            shared += 1
        visits.clear()
        assert first_violation(d, counting(check_node)) is None
        assert sorted(visits) == sorted(distinct)
    assert shared > 0
    # check_m of a lift onto a target, after check_m of the plain lift,
    # checks only the Structural steps from one end antecedent to the other
    monkeypatch.setattr(mseq, "check_m_node", counting(check_m_node))
    for d in generate_derivations(random.Random(23), GENERATED_ATOMS, 40):
        md = lift(d)
        onto = lift(d, target=Cat(ConstI(), md.conclusion.antecedent))
        assert check_m(md)
        chain = []
        node = onto
        while node is not md:
            chain.append(node)
            node = node.premises[0]
        assert chain and {node.rule for node in chain} == {"Structural"}
        visits.clear()
        assert check_m(onto)
        assert visits == [id(node) for node in reversed(chain)]


def test_stored_verdicts_keep_nothing_alive():
    # a verdict is a module function, never a node: with the cycle
    # collector off, dropping a checked derivation and its checked lift
    # frees every node of both
    s = seq("(n . (n . n)) => ((n . n) . n)")
    gc.collect()
    gc.disable()
    try:
        d = prove(s)
        md = lift(d)
        assert check(d) and check_m(md)
        assert (d._checked, md._checked) == (check_node, check_m_node)
        assert d == prove(s) and "_checked" not in repr(d)
        refs = [weakref.ref(node) for tree in (d, md) for node in _nodes(tree)]
        del d, md
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_under_l_enumerates_a_long_region():
    # enum_chunkings keeps its own stack: its recursive generator raised
    # RecursionError on this region.  UnderL's region grows leftward from
    # the principal, OverL's (the mirror case) rightward.
    a = ", ".join(["a"] * 1200)
    for rule, text in (("UnderL", a + ", (a \\ s) => s"), ("OverL", "(s / a), " + a + " => s")):
        assert len(list(enumerate_rule_instances(seq(text), only_rule=rule))) == 1201, rule


def _product_chain(n):
    goal = "a"
    for _ in range(n - 1):
        goal = "(%s . a)" % goal
    return seq(", ".join(["a"] * n) + " => " + goal)


def test_product_chain_at_the_baseline_size():
    # ProdR takes only the split whose left part balances, so each level
    # builds one pair of premises, not n + 1
    assert prove(_product_chain(40)) == reference_prove(_product_chain(40))
    s = _product_chain(200)
    start = time.perf_counter()
    d = prove(s)
    assert time.perf_counter() - start < 1
    assert d is not None and check(d)


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


def test_json_text_of_the_provable_family_equals_dumps():
    # prove_all's memo shares subderivations within and across readings, so
    # the writer meets shared nodes at equal and at different indents
    everything = []
    for k in range(5):
        found = prove_all(seq(", ".join(["n", SV] * k + [Q, TV, Q]) + " => s"), limit=16)
        assert found
        for d in found:
            assert json_text(d) == json.dumps(derivation_to_obj(d), indent=2, sort_keys=True)
        everything += found
    objs = [derivation_to_obj(d) for d in everything]
    assert json_text(everything) == json.dumps(objs, indent=2, sort_keys=True)
