"""Round-trip translation between the two presentations, plus the goldens."""

import gc
import hashlib
import importlib.util
import json
import os
import random
import weakref

import pytest
from dcalc import bridge
from dcalc.bridge import BridgeError, lift, lower
from dcalc.derivation import Derivation, json_text
from dcalc.hseq import (
    RULES,
    HDerivation,
    HSequent,
    check,
    check_node,
    derivation_from_obj,
    derivation_to_obj,
    parse_hsequent,
    prove,
)
from dcalc.mseq import (
    MSequent,
    check_m,
    check_m_node,
    m_derivation_from_obj,
    m_derivation_to_obj,
    parse_msequent,
)
from dcalc.syntax import (
    EMPTY,
    Separator,
    Signature,
    SortError,
    config_str,
    flatten,
    generalized_wrap,
    item_at,
    iter_items,
    splice_item,
)
from dcalc.terms import (
    Cat,
    ConstI,
    Leaf,
    apply_rule,
    enumerate_rule_apps,
    extract,
    extractable,
    is_canonical,
    iter_subterms,
    normalize,
    parse_term,
    sharp,
    term_of_config,
    trace_to_obj,
)

import golden_defs
from helpers import (
    ReferenceHSequent,
    ReferenceMSequent,
    correspondence_check,
    generate_derivations,
    random_term,
    reference_append_trace,
    reference_parse_hsequent,
    reference_parse_msequent,
)

GOLDEN = golden_defs.GOLDEN_DIR
SIG = Signature.from_text("a 0\nb 2\nc 0\nd 2\ne 1\nn 0\ns 0\n")
CUT_ATOMS = (("a", 0), ("c", 0), ("e", 1), ("b", 2))


def hseq(text, sig=SIG):
    return parse_hsequent(text, sig)


# ---------------------------------------------------------------------------
# the worked example


def load_goldens():
    with open(os.path.join(GOLDEN, "hsder.json")) as fh:
        hs_obj = json.load(fh)
    with open(os.path.join(GOLDEN, "mmder.json")) as fh:
        mm_obj = json.load(fh)
    hs = derivation_from_obj(hs_obj, golden_defs.SIG)
    mm = m_derivation_from_obj(mm_obj, golden_defs.SIG)
    return hs, mm


def test_golden_files_match_their_builders():
    hs, mm = load_goldens()
    assert hs == golden_defs.build_hsder()
    assert mm == golden_defs.build_mmder()
    # serialization is byte-stable
    with open(os.path.join(GOLDEN, "hsder.json")) as fh:
        assert fh.read() == json.dumps(derivation_to_obj(hs), indent=2, sort_keys=True) + "\n"
    with open(os.path.join(GOLDEN, "mmder.json")) as fh:
        assert fh.read() == json.dumps(m_derivation_to_obj(mm), indent=2, sort_keys=True) + "\n"


def test_golden_derivations_check():
    hs, mm = load_goldens()
    assert check(hs)
    assert check_m(mm)
    assert correspondence_check(hs, mm)


def test_golden_lift_hits_the_golden_antecedent():
    hs, mm = load_goldens()
    found = prove(hs.conclusion)
    assert found is not None
    lifted = lift(found, target=mm.conclusion.antecedent)
    assert check_m(lifted)
    assert lifted.conclusion == mm.conclusion


# ---------------------------------------------------------------------------
# lifting


def test_lift_lands_on_the_canonical_term():
    d = prove(hseq("n, (n \\ s) => s"))
    md = lift(d)
    assert check_m(md)
    assert md.conclusion.antecedent == term_of_config(d.conclusion.antecedent)
    assert correspondence_check(d, md)


def test_lift_target_validation():
    d = prove(hseq("n, (n \\ s) => s"))
    good = parse_term("((II + n) + (n \\ s))", SIG)
    md = lift(d, target=good)
    assert check_m(md)
    assert md.conclusion.antecedent == good
    with pytest.raises(BridgeError):
        lift(d, target=parse_term("((n \\ s) + n)", SIG))


def test_lift_all_rules_round_trip():
    rng = random.Random(23)
    ds = generate_derivations(rng, (("p", 0), ("q", 0), ("r", 1), ("s", 2)), 80)
    rules = set()
    for d in ds:
        md = lift(d)
        assert check_m(md)
        assert correspondence_check(d, md)
        back = lower(md)
        assert check(back)
        assert back.conclusion == d.conclusion
        stack = [d]
        while stack:
            node = stack.pop()
            rules.add(node.rule)
            stack.extend(node.premises)
    # the pool covers a healthy slice of the rule inventory
    assert len(rules) >= 10


def _non_canonical_target(rng, t):
    """A term with t's sharp image reached by a few random rewrite steps."""
    for _ in range(3):
        t = apply_rule(t, rng.choice(enumerate_rule_apps(t)))
    return t if not is_canonical(t) else Cat(ConstI(), t)


def test_lift_agrees_with_the_replayed_structural_chain(monkeypatch):
    rng = random.Random(5)
    cases = []
    generated_atoms = (("p", 0), ("q", 0), ("r", 1), ("s", 2))
    gen_sig = Signature(dict(generated_atoms))
    for d in generate_derivations(random.Random(17), generated_atoms, 60):
        target = _non_canonical_target(rng, term_of_config(d.conclusion.antecedent))
        cases.append((d, target, lift(d), lift(d, target=target)))
    monkeypatch.setattr(bridge, "_append_trace", reference_append_trace)
    for d, target, plain, reshaped in cases:
        # d and its subderivations store their lifts, and the generated
        # derivations share nodes: a fresh, equal copy is lifted anew
        fresh = derivation_from_obj(derivation_to_obj(d), gen_sig)
        assert fresh == d and getattr(fresh, "_lifted", None) is None
        assert plain == lift(fresh)
        assert reshaped == lift(fresh, target=target)
        assert reshaped.conclusion.antecedent == target


def test_a_derivation_stores_its_lift(monkeypatch):
    d = prove(hseq("n, (n \\ s) => s"))
    plain = lift(d)
    assert lift(d) is plain
    calls = []

    def counting_normalize(t):
        calls.append(t)
        return normalize(t)

    monkeypatch.setattr(bridge, "normalize", counting_normalize)
    target = parse_term("((II + n) + (n \\ s))", SIG)
    md = lift(d, target=target)
    # only the reshape onto the target normalizes
    assert calls == [target]
    assert md.conclusion.antecedent == target and check_m(md)
    assert lift(d) is plain


def _nodes(d):
    """Every node occurrence of d, in pre-order."""
    out, stack = [], [d]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.premises)
    return out


def test_a_shared_subderivation_is_lifted_once(monkeypatch):
    d = prove(hseq("(n . (n . n)) => ((n . n) . n)"))
    occurrences = _nodes(d)
    distinct = {id(node) for node in occurrences}
    # prove's memo shares a subderivation object between premises
    assert len(distinct) < len(occurrences)
    lifted = []

    def counting_lift_node(node):
        lifted.append(id(node))
        return lift_node(node)

    lift_node = bridge._lift_node
    monkeypatch.setattr(bridge, "_lift_node", counting_lift_node)
    md = lift(d)
    assert sorted(lifted) == sorted(distinct)
    assert check_m(md) and correspondence_check(d, md)


def test_a_derivation_and_its_lifts_are_freed_together():
    # the stored lift refers to no node of the derivation: with the cycle
    # collector off, reference counting alone frees every node of d and of
    # both lifts
    d = prove(hseq("(n . (n . n)) => ((n . n) . n)"))
    target = Cat(ConstI(), term_of_config(d.conclusion.antecedent))
    gc.collect()
    gc.disable()
    try:
        plain, reshaped = lift(d), lift(d, target=target)
        refs = [weakref.ref(node) for tree in (d, plain, reshaped) for node in _nodes(tree)]
        assert getattr(d, "_lifted", None) is plain
        del d, plain, reshaped
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_traced_benchmark_names_exist():
    # the benchmark's traced run wraps these names where cli and bridge
    # import them, and stops when one is missing
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "ops.py")
    spec = importlib.util.spec_from_file_location("perfbench_ops", path)
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    assert bridge in ops.TRACED_IMPORTS
    for module, names in ops.TRACED_IMPORTS.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)


# ---------------------------------------------------------------------------
# lowering


def test_lower_golden():
    hs, mm = load_goldens()
    back = lower(mm)
    assert check(back)
    assert flatten(back.conclusion.antecedent) == flatten(sharp(mm.conclusion.antecedent))
    assert back.conclusion.succedent == mm.conclusion.succedent


def _cut(d1, d2, at):
    """The Cut of the derivation d1 into item `at` of d2's antecedent."""
    item = item_at(d2.conclusion.antecedent, at)
    plugged = generalized_wrap(d1.conclusion.antecedent, getattr(item, "gaps", ()))
    ant = splice_item(d2.conclusion.antecedent, at, plugged.items)
    return HDerivation("Cut", HSequent(ant, d2.conclusion.succedent), (d1, d2), (("at", at),))


# cut formulas of sorts 0, 1 and 2; the fourth cuts into the second of two
# equal items, so lower passes over the first address, and the last two
# cut into either of two equal items with the same conclusion, so only the
# md Cut's leaf path tells them apart
CUTS = (
    ("n, (n \\ s) => s", "s => s", (0,)),
    ("0:e,[],1:e => e", "0:e,n,1:e => e @1 n", (0,)),
    ("0:b,[],1:b,[],2:b => b", "0:b,[],1:b,[],2:b => b", (0,)),
    ("n, (n \\ s) => s", "s, s => (s . s)", (1,)),
    ("a => a", "a, a => (a . a)", (0,)),
    ("a => a", "a, a => (a . a)", (1,)),
)


def _text_cuts():
    return [_cut(prove(hseq(left)), prove(hseq(right)), at) for left, right, at in CUTS]


def test_lift_and_lower_cut():
    for cut in _text_cuts():
        assert check(cut)
        md = lift(cut)
        node = md
        while node.rule == "Structural":
            node = node.premises[0]
        assert node.rule == "Cut"
        assert check_m(md)
        assert correspondence_check(cut, md)
        back = lower(md)
        assert check(back)
        assert back == cut
        assert json.dumps(derivation_to_obj(back)) == json.dumps(derivation_to_obj(cut))


def test_cuts_of_generated_derivations_close_and_lower_exactly():
    # every Cut of one generated derivation into an item of another whose
    # type is its succedent, with at most 3 left derivations per item and 14
    # flat tokens after the cut; hD is cut-free, so search must prove each
    # conclusion, and the round trip through md must give the cut back
    ds = generate_derivations(random.Random(5), CUT_ATOMS, 300, max_depth=4, max_flat=8)
    cuts = []
    for d2 in ds:
        for at, item in iter_items(d2.conclusion.antecedent):
            if isinstance(item, Separator):
                continue
            for d1 in [d for d in ds if d.conclusion.succedent == item.type][:3]:
                cut = _cut(d1, d2, at)
                if len(flatten(cut.conclusion.antecedent)) <= 14:
                    cuts.append(cut)
    assert len(cuts) == 1334
    for cut in cuts:
        assert check(cut)
        assert prove(cut.conclusion) is not None
        md = lift(cut)
        assert check_m(md) and correspondence_check(cut, md)
        assert lower(md) == cut


def test_lower_rejects_a_node_with_the_wrong_number_of_premises():
    # Structural and Cut read their premises by position and an axiom has
    # none: any other count raises BridgeError, at the root or below a node
    md = lift(_text_cuts()[0])
    structural, cut = md, md
    while cut.rule == "Structural":
        cut = cut.premises[0]
    assert structural.rule == "Structural" and cut.rule == "Cut"
    axiom = Derivation("Id", parse_msequent("n -> n", SIG), (), ())
    bad = (
        (structural, (), "Structural takes 1 premises"),
        (structural, (axiom, axiom), "Structural takes 1 premises"),
        (cut, cut.premises[:1], "Cut takes 2 premises"),
        (cut, cut.premises * 2, "Cut takes 2 premises"),
        (axiom, (axiom,), "Id takes 0 premises"),
    )
    for node, premises, message in bad:
        node = Derivation(node.rule, node.conclusion, premises, node.params)
        for d in (node, Derivation("Structural", node.conclusion, (node,), structural.params)):
            with pytest.raises(BridgeError, match="^%s$" % message):
                lower(d)
    assert lower(axiom) == prove(hseq("n => n"))


def test_lower_rejects_a_cut_without_a_leaf_path():
    # the Cut's `at` names the type leaf of its second premise's antecedent
    # that the cut formula fills: missing, or addressing no such leaf, it
    # raises BridgeError
    cut = lift(_text_cuts()[0])
    while cut.rule == "Structural":
        cut = cut.premises[0]
    assert cut.params == (("at", (0,)),)
    for params, message in (
        ((), "Cut: missing rule parameter 'at'"),
        ((("at", (5,)),), "Cut: path (5,) does not address a type leaf"),
        ((("at", (0, 1)),), "Cut: path (0, 1) does not address a type leaf"),
    ):
        with pytest.raises(BridgeError) as got:
            lower(Derivation("Cut", cut.conclusion, cut.premises, params))
        assert str(got.value) == message


def test_json_text_writes_the_golden_and_cut_derivations():
    hs, mm = golden_defs.build_hsder(), golden_defs.build_mmder()
    with open(os.path.join(GOLDEN, "hsder.json")) as fh:
        assert fh.read() == json_text(hs) + "\n"
    with open(os.path.join(GOLDEN, "mmder.json")) as fh:
        assert fh.read() == json_text(mm) + "\n"
    cuts = _text_cuts()
    for d in cuts + [lift(cut) for cut in cuts]:
        assert json_text(d) == json.dumps(derivation_to_obj(d), indent=2, sort_keys=True)


def test_correspondence_check_negative():
    d1 = prove(hseq("n, (n \\ s) => s"))
    d2 = prove(hseq("a => a"))
    md = lift(d1)
    assert correspondence_check(d1, md)
    assert not correspondence_check(d2, md)


# ---------------------------------------------------------------------------
# pinned outputs


# sha256 of sharp's image, the normalize trace and every extraction of seeded
# random terms, and of lift and lower on generated derivations.  A change that
# only restructures the code (drops a cache, say) must leave it as it is.
OUTPUT_DIGEST = "73a84b4318ccd3c6f855f54f67ab4c752a8d29514b778c39d2542b7c98e3e093"


def test_outputs_are_pinned():
    atoms = (("a", 0), ("c", 0), ("e", 1), ("b", 2))
    h = hashlib.sha256()
    rng = random.Random(31)
    for _ in range(60):
        t = random_term(rng, atoms, 4)
        h.update(("%s\n" % config_str(sharp(t))).encode())
        h.update(json.dumps(trace_to_obj(normalize(t))).encode())
        for path, sub in iter_subterms(t):
            if isinstance(sub, Leaf) and extractable(t, path) is not None:
                rest, i, trace = extract(t, path)
                h.update(json.dumps([str(rest), i, trace_to_obj(trace)]).encode())
    generated_atoms = (("p", 0), ("q", 0), ("r", 1), ("s", 2))
    for d in generate_derivations(random.Random(17), generated_atoms, 60):
        md = lift(d)
        h.update(json.dumps([derivation_to_obj(md), derivation_to_obj(lower(md))]).encode())
    assert h.hexdigest() == OUTPUT_DIGEST


# sha256 of the check verdict on every logical node of generated derivations
# and of their lifts, and on mutants of each node: premises reversed, renamed
# to every other rule, and `at` moved to every other address.  A change that
# only restructures the rule definitions must leave it as it is.
VERDICT_DIGEST = "45f2ed303a0572c63b5717eca8e9c0eb2be747ca7fd34fc403aa4a43c8c236b8"


def _verdict(node_ok, node):
    try:
        return node_ok(node)
    except (ValueError, IndexError, KeyError, TypeError):
        return False


def _mutants(node, addresses):
    yield node
    yield Derivation(node.rule, node.conclusion, node.premises[::-1], node.params)
    for rule in RULES:
        if rule != node.rule:
            yield Derivation(rule, node.conclusion, node.premises, node.params)
    params = node.params_dict()
    if "at" in params:
        for addr in addresses:
            if addr != tuple(params["at"]):
                moved = tuple(sorted(dict(params, at=addr).items()))
                yield Derivation(node.rule, node.conclusion, node.premises, moved)


def test_check_verdicts_on_mutated_nodes_are_pinned():
    calculi = (
        (lambda d: d, check_node, lambda s: [a for a, _ in iter_items(s.antecedent)]),
        (lift, check_m_node, lambda s: [p for p, _ in iter_subterms(s.antecedent)]),
    )
    h = hashlib.sha256()
    verdicts = {False: 0, True: 0}
    generated_atoms = (("p", 0), ("q", 0), ("r", 1), ("s", 2))
    for d in generate_derivations(random.Random(17), generated_atoms, 60):
        for translate, node_ok, addresses in calculi:
            stack = [translate(d)]
            while stack:
                node = stack.pop()
                stack.extend(node.premises)
                if node.rule == "Structural":
                    continue
                for m in _mutants(node, addresses(node.conclusion)):
                    v = _verdict(node_ok, m)
                    verdicts[v] += 1
                    h.update(("%s %s %r %s\n" % (m.rule, m.conclusion, m.params, v)).encode())
    assert verdicts == {False: 11007, True: 1042}
    assert h.hexdigest() == VERDICT_DIGEST


# ---------------------------------------------------------------------------
# the sequents against their definitions before derivation.Sequent


def _outcome(f, *args):
    try:
        return "ok", repr(f(*args)).replace("Reference", "", 1)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def test_sequents_agree_with_the_reference_classes():
    hs, mm = load_goldens()
    generated_atoms = (("p", 0), ("q", 0), ("r", 1), ("s", 2))
    ds = generate_derivations(random.Random(17), generated_atoms, 60)
    gen_sig = Signature(dict(generated_atoms))
    trees = [(hs, golden_defs.SIG), (mm, golden_defs.SIG)]
    trees += [(d, gen_sig) for d in ds] + [(lift(d), gen_sig) for d in ds]
    pairs, parsed = [], set()
    for tree, sig in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            s = node.conclusion
            if isinstance(s, HSequent):
                ref, parse, ref_parse = ReferenceHSequent, parse_hsequent, reference_parse_hsequent
            else:
                ref, parse, ref_parse = ReferenceMSequent, parse_msequent, reference_parse_msequent
            old = ref(s.antecedent, s.succedent)
            assert str(s) == str(old)
            assert repr(s) == repr(old).replace("Reference", "", 1)
            assert hash(s) == hash(old)
            pairs.append((s, old))
            if str(s) not in parsed:
                parsed.add(str(s))
                assert parse(str(s), sig) == s
                assert _outcome(parse, str(s), sig) == _outcome(ref_parse, str(s), sig)
    assert sum(isinstance(s, MSequent) for s, _ in pairs) > 100
    # equal sequents print alike, so sorted by text each run of equals is
    # compared within itself; a random sample pairs the rest, both calculi
    pairs.sort(key=lambda pair: str(pair[0]))
    rng = random.Random(0)
    equal = 0
    for n, (s, old) in enumerate(pairs):
        for t, old_t in pairs[n : n + 4] + rng.sample(pairs, 4):
            assert (s == t) == (old == old_t)
            equal += s == t
    assert 0 < equal < len(pairs) * 8


# each text is malformed in at least one calculus
MALFORMED_SEQUENTS = [
    "a -> a",  # the other calculus's arrow
    "a => a",
    "a = > a",
    "a => a a",  # trailing input
    "a -> a a",
    "a => a =>",
    "a => e",  # sort mismatch
    "e -> a",
    "0:e,1:e => a",
    "0:e,[],1:e => e",
    "Lambda => a",  # the empty antecedent
    "Lambda => e",
    "Lambda -> a",
    "Lambda, a => a",
    "=> I",
    "-> I",
    "",
    "a",
    "a =>",
    "(a -> a",
    "1:e => e",
]


def test_sequent_parsers_fail_as_the_reference_parsers_do():
    for text in MALFORMED_SEQUENTS:
        assert _outcome(parse_hsequent, text, SIG) == _outcome(reference_parse_hsequent, text, SIG)
        assert _outcome(parse_msequent, text, SIG) == _outcome(reference_parse_msequent, text, SIG)
    e = parse_hsequent("0:e,[],1:e => e", SIG).succedent
    a = parse_hsequent("a => a", SIG).succedent
    for new, old, ant, succ in (
        (HSequent, ReferenceHSequent, EMPTY, e),
        (MSequent, ReferenceMSequent, Leaf(e), a),
        (MSequent, ReferenceMSequent, ConstI(), e),
    ):
        assert _outcome(new, ant, succ) == _outcome(old, ant, succ)
        assert _outcome(new, ant, succ)[0] is SortError
