"""The term-sequent presentation: logical rules plus explicit rewrite steps."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcalc.bridge import lift, lower
from dcalc.derivation import derivation_latex, derivation_text, json_text
from dcalc.hseq import HDerivation, check
from dcalc.mseq import (
    MDerivation,
    check_m,
    m_derivation_from_obj,
    m_derivation_to_obj,
    parse_msequent,
    prove_m,
    structural_step,
)
from dcalc.syntax import Atom, ParseError, Signature, Under
from dcalc.terms import Cat, ConstI, ConstJ, Leaf, RuleApp, WrapT

from helpers import (
    generate_derivations,
    reference_derivation_latex,
    reference_derivation_to_obj,
    reference_parse_msequent,
)

SIG = Signature.from_text("a 0\nb 2\nc 0\nd 2\ne 1\nn 0\ns 0\n")


def mseq(text):
    return parse_msequent(text, SIG)


# ---------------------------------------------------------------------------
# sequents


def test_parse_msequent():
    s = mseq("(n + (n \\ s)) -> s")
    assert s.antecedent == Cat(Leaf(Atom("n", 0)), Leaf(Under(Atom("n", 0), Atom("s", 0))))
    assert s.succedent == Atom("s", 0)
    assert parse_msequent(str(s), SIG) == s


def test_msequent_sort_mismatch():
    with pytest.raises(ParseError):
        mseq("e -> a")
    with pytest.raises(ParseError):
        mseq("(e +1 a) -> e")


# ---------------------------------------------------------------------------
# axioms and logical rules, built by hand


def test_axioms():
    assert check_m(MDerivation("Id", mseq("a -> a")))
    assert check_m(MDerivation("IR", mseq("II -> I")))
    assert check_m(MDerivation("JR", mseq("JJ -> J")))
    assert not check_m(MDerivation("Id", mseq("II -> I")))


def test_under_left_and_right():
    id_n = MDerivation("Id", mseq("n -> n"))
    id_s = MDerivation("Id", mseq("s -> s"))
    app = MDerivation(
        "UnderL", mseq("(n + (n \\ s)) -> s"), (id_n, id_s), (("at", ()),)
    )
    assert check_m(app)
    lifted = MDerivation("UnderR", mseq("(n \\ s) -> (n \\ s)"), (app,), ())
    assert check_m(lifted)


def test_up_left():
    id_a = MDerivation("Id", mseq("a -> a"))
    id_e = MDerivation("Id", mseq("e -> e"))
    d = MDerivation(
        "UpL", mseq("((e ^1 a) +1 a) -> e"), (id_a, id_e), (("at", ()),)
    )
    assert check_m(d)
    wrong_index = MDerivation(
        "UpL", mseq("((e ^1 a) +1 a) -> e"), (id_a, id_e), (("at", (0,)),)
    )
    assert not check_m(wrong_index)


def test_prod_left():
    inner = MDerivation("Id", mseq("n -> n"))
    right = MDerivation(
        "ProdR", mseq("(n + s) -> (n . s)"),
        (inner, MDerivation("Id", mseq("s -> s"))), (),
    )
    d = MDerivation("ProdL", mseq("(n . s) -> (n . s)"), (right,), (("at", ()),))
    assert check_m(d)


def test_dprod_rules():
    id_e = MDerivation("Id", mseq("e -> e"))
    id_a = MDerivation("Id", mseq("a -> a"))
    r = MDerivation("DProdR", mseq("(e +1 a) -> (e @1 a)"), (id_e, id_a), ())
    assert check_m(r)
    l = MDerivation(
        "DProdL", mseq("(e @1 a) -> (e @1 a)"),
        (MDerivation(
            "DProdR", mseq("(e +1 a) -> (e @1 a)"), (id_e, id_a), ()
        ),),
        (("at", ()),),
    )
    assert check_m(l)


# ---------------------------------------------------------------------------
# structural steps


def test_structural_step_extends_derivation():
    d = MDerivation("Id", mseq("a -> a"))
    d2 = structural_step(d, RuleApp("UnitI-L-add", ()))
    assert d2.rule == "Structural"
    assert d2.conclusion.antecedent == Cat(ConstI(), Leaf(Atom("a", 0)))
    assert check_m(d2)
    d3 = structural_step(d2, RuleApp("UnitI-L-drop", ()))
    assert d3.conclusion == d.conclusion
    assert check_m(d3)


def test_structural_step_validates_the_rewrite():
    d = MDerivation("Id", mseq("a -> a"))
    d2 = structural_step(d, RuleApp("UnitJ-L-add", ()))
    # corrupt the recorded conclusion: the replay must notice
    bad = MDerivation(d2.rule, mseq("(a + II) -> a"), d2.premises, d2.params)
    assert not check_m(bad)
    # corrupt the recorded rule parameters the same way
    params = dict(d2.params_dict())
    params["srule"] = "UnitI-L-add"
    bad2 = MDerivation(d2.rule, d2.conclusion, d2.premises, tuple(params.items()))
    assert not check_m(bad2)


def test_structural_index_params_matter():
    d = MDerivation("Id", mseq("b -> b"))
    d2 = structural_step(d, RuleApp("UnitJ-i-add", (), (("i", 2),)))
    assert d2.conclusion.antecedent == WrapT(2, Leaf(Atom("b", 2)), ConstJ())
    params = dict(d2.params_dict())
    assert params["indices"] == (("i", 2),)
    params["indices"] = (("i", 1),)
    bad = MDerivation(d2.rule, d2.conclusion, d2.premises, tuple(params.items()))
    assert not check_m(bad)


# ---------------------------------------------------------------------------
# search by translation


def test_prove_m_finds_proofs():
    for text in (
        "(n + (n \\ s)) -> s",
        "((s / n) + n) -> s",
        "(e +1 a) -> (e @1 a)",
        "II -> I",
    ):
        d = prove_m(mseq(text))
        assert d is not None, text
        assert check_m(d)
        assert d.conclusion == mseq(text)


def test_prove_m_negative():
    assert prove_m(mseq("a -> c")) is None
    assert prove_m(mseq("((n \\ s) + n) -> s")) is None


def test_prove_m_through_noncanonical_antecedent():
    # the target antecedent is not in canonical form: rewrite steps appear
    d = prove_m(mseq("((II + n) + (n \\ s)) -> s"))
    assert d is not None and check_m(d)
    rules = set()
    stack = [d]
    while stack:
        node = stack.pop()
        rules.add(node.rule)
        stack.extend(node.premises)
    assert "Structural" in rules


# ---------------------------------------------------------------------------
# serialization


def test_m_derivation_json_round_trip():
    d = prove_m(mseq("((II + n) + (n \\ s)) -> s"))
    obj = m_derivation_to_obj(d)
    assert set(obj) == {"rule", "sequent", "params", "premises"}
    assert m_derivation_from_obj(obj, SIG) == d
    text = json.dumps(obj, indent=2, sort_keys=True)
    assert json.loads(text) == obj


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300)
@given(JSON_VALUES)
def test_json_text_equals_indented_sorted_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_m_renderings_smoke():
    d = prove_m(mseq("(n + (n \\ s)) -> s"))
    text = derivation_text(d)
    assert "UnderL" in text
    latex = derivation_latex(d)
    assert "\\infer" in latex or "\\frac" in latex


def test_both_calculi_share_one_derivation_type():
    assert MDerivation is HDerivation


def long_structural_chain():
    # 2,400 steps: deeper than the interpreter's default recursion limit
    d = MDerivation("Id", mseq("a -> a"))
    for _ in range(1200):
        d = structural_step(d, RuleApp("UnitI-L-add", ()))
        d = structural_step(d, RuleApp("UnitI-L-drop", ()))
    return d


def test_check_m_walks_a_long_structural_chain():
    assert check_m(long_structural_chain())


def test_text_renders_a_long_structural_chain():
    lines = derivation_text(long_structural_chain()).split("\n")
    assert len(lines) == 2401
    assert lines[0] == "[Structural at=(), indices=(), srule=UnitI-L-drop] a -> a"
    assert lines[-1] == "  " * 2400 + "[Id] a -> a"


def test_latex_renders_a_long_structural_chain():
    text = derivation_latex(long_structural_chain())
    head = "\\infer[\\mathrm{Structural}]{\\texttt{a -> a}}{"
    assert text.startswith(head)
    assert text.count("\\infer[") == 2401
    assert text.endswith("\\infer[\\mathrm{Id}]{\\texttt{a -> a}}{}" + "}" * 2400)


def test_latex_agrees_with_the_reference_renderer():
    ds = generate_derivations(random.Random(17), (("p", 0), ("q", 0), ("r", 1), ("s", 2)), 60)
    for d in ds + [lift(d) for d in ds]:
        assert derivation_latex(d) == reference_derivation_latex(d)


def test_json_text_writes_a_long_structural_chain():
    # from the nodes, as the dict path writes it (json.dumps recurses per level)
    d = long_structural_chain()
    text = json_text(d)
    assert text == json_text(m_derivation_to_obj(d))
    assert text.count('"rule": "Structural"') == 2400
    assert text.count('"rule": "Id"') == 1


def test_from_obj_reads_a_long_structural_chain():
    # the object is built in-process: json.loads itself recurses per level
    obj = m_derivation_to_obj(long_structural_chain())
    d = m_derivation_from_obj(obj, SIG)
    assert check_m(d)
    # dict == recurses too; the text compares the whole tree
    assert json_text(m_derivation_to_obj(d)) == json_text(obj)


# Valid sequents that put the succedents of the test below into a read's
# table before the node under test is read.
M_FILLERS = ("n -> n", "s -> s", "(n + (n\\s)) -> s", "II -> I", "(e +1 n) -> s", "((n\\s)/n) -> (n\\s)/n")


@settings(max_examples=300, deadline=None)
@given(
    term=st.recursive(
        st.sampled_from(("n", "s", "n\\s", "(n\\s)/n", "II", "(e +1 n)", "( e+1 II )")),
        lambda sub: st.tuples(sub, st.sampled_from(("+", " + ", "\t+ ")), sub).map("(%s%s%s)".__mod__),
        max_leaves=4,
    ),
    arrow=st.sampled_from((" -> ", "->", "\t->  ")),
    corruption=st.sampled_from(("none", "no arrow", "hd arrow", "trailing token", "second arrow", "comma")),
    bad=st.sampled_from(("", "", "$", "\n", "-", ">")),
    where=st.integers(0, 60),
)
def test_a_read_fails_as_the_m_sequent_parser_does(term, arrow, corruption, bad, where):
    # an md sequent of sort 0, then at most one fault and perhaps a
    # character that starts no token, or half an arrow
    arrow = {"no arrow": " ", "hd arrow": " => "}.get(corruption, arrow)
    text = term + arrow + "s" + {"trailing token": " n", "second arrow": " -> s"}.get(corruption, "")
    if corruption == "comma":
        text = text[: where % len(text)] + "," + text[where % len(text) :]
    text = text[: where * 7 % len(text)] + bad + text[where * 7 % len(text) :]
    fillers = [{"rule": "Id", "sequent": f, "params": {}, "premises": []} for f in M_FILLERS]
    node = {"rule": "Id", "sequent": text, "params": {}, "premises": []}
    obj = dict(fillers[0], premises=fillers[1:] + [node])

    def outcome(read):
        try:
            return "ok", read()
        except ParseError as exc:
            return "error", str(exc)

    alone = outcome(lambda: parse_msequent(text, SIG))
    reference = outcome(lambda: reference_parse_msequent(text, SIG))
    assert alone[0] == reference[0] and (alone[0] == "ok" or alone == reference)
    read = outcome(lambda: m_derivation_from_obj(obj, SIG))
    if alone[0] == "ok":
        assert read[0] == "ok" and read[1].premises[-1].conclusion == alone[1]
    else:
        assert read == alone, text


def test_from_obj_reads_a_node_sequent_first_and_rule_last():
    good = m_derivation_to_obj(MDerivation("Id", mseq("a -> a")))
    bad_sequent = dict(good, sequent="a -> ")
    bad_rule = dict(good, rule=7)
    # a node's own sequent before its premises
    with pytest.raises(ParseError, match="sequent"):
        m_derivation_from_obj(dict(bad_rule, sequent=3, premises=[bad_sequent]), SIG)
    # its premises in order, each read whole before the next
    with pytest.raises(ParseError, match="rule"):
        m_derivation_from_obj(dict(good, premises=[dict(good, premises=[bad_rule]), 5]), SIG)
    # its rule and params after its premises
    with pytest.raises(ParseError, match="a derivation node"):
        m_derivation_from_obj(dict(bad_rule, params=[], premises=[good, 5]), SIG)
    with pytest.raises(ParseError, match="rule"):
        m_derivation_from_obj(dict(bad_rule, params=[], premises=[good]), SIG)
    with pytest.raises(ParseError, match="params"):
        m_derivation_from_obj(dict(good, params=[], premises=[good]), SIG)


def test_json_text_of_a_short_chain_equals_dumps():
    d = MDerivation("Id", mseq("a -> a"))
    for n in range(50):
        d = structural_step(d, RuleApp("UnitI-L-drop" if n % 2 else "UnitI-L-add", ()))
    obj = m_derivation_to_obj(d)
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_text_of_prove_m_derivations_equals_dumps():
    # Structural steps whose indices are JSON objects, empty or not
    written = ""
    for text in (
        "(b +2 JJ) -> b",
        "(e +1 (II + a)) -> (e @1 a)",
        "((b +2 d) +1 e) -> ((b @2 d) @1 e)",
        "((II + n) + (n \\ s)) -> s",
    ):
        d = prove_m(mseq(text))
        written += json_text(d)
        assert written.endswith(json.dumps(m_derivation_to_obj(d), indent=2, sort_keys=True))
    assert '"indices": {}' in written and '"indices": {\n' in written


def test_json_text_writes_a_shared_node_at_each_of_its_indents():
    # one node object at depths 1 and 2, and twice at depth 2: a text kept by
    # node alone would put the deeper copy at the shallower indent
    leaf = MDerivation("Id", mseq("a -> a"))
    mid = MDerivation("Structural", mseq("(II + a) -> a"), (leaf,), (("indices", (("i", 1),)),))
    twice = MDerivation("ProdR", mseq("((II + a) + (II + a)) -> (a . a)"), (mid, mid))
    root = MDerivation("ProdR", mseq("(a + ((II + a) + (II + a))) -> (a . (a . a))"), (leaf, twice))
    for value in (root, [root, twice, leaf, root], {"x": [leaf], "y": root}):
        want = json.dumps(value, default=m_derivation_to_obj, indent=2, sort_keys=True)
        assert json_text(value) == want


def test_json_objects_agree_with_the_reference_builder():
    ds = generate_derivations(random.Random(18), (("p", 0), ("q", 0), ("r", 1), ("s", 2)), 60)
    for d in ds + [lift(d) for d in ds]:
        # unsorted dumps: the key order is pinned too
        assert json.dumps(m_derivation_to_obj(d)) == json.dumps(reference_derivation_to_obj(d))


def test_lower_skips_a_long_structural_chain():
    back = lower(long_structural_chain())
    assert back.rule == "Id" and str(back.conclusion) == "a => a"
    assert check(back)
