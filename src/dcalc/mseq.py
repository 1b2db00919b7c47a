"""Sequent calculus over structural terms, with explicit rewrite steps.

Antecedents here are structural terms rather than configurations; the
logical rules mirror the configuration calculus one-for-one, acting on a
designated subterm, and a separate Structural rule applies one rewrite step
to the whole antecedent.  The ``RULES`` table states each logical rule once,
in the order of ``hseq.RULES``: a right rule's premises, or a left rule's
redex, reduct and minor premise.  Checking and ``bridge.lift`` both read it.
Sequents (``MSequent``, a ``derivation.Sequent`` written with ``->``) and
derivations are the shared ones of ``derivation``; only the rule table and
the single-node check (``check_m_node``) belong to this calculus.
"""

from __future__ import annotations

from .syntax import (
    DDown,
    DProd,
    DUp,
    Over,
    Prod,
    Signature,
    Under,
    UnitI,
    UnitJ,
)
from .terms import (
    Cat,
    ConstI,
    ConstJ,
    Leaf,
    RuleApp,
    WrapT,
    _parse_term,
    apply_rule,
    is_step,
    parse_term,
    replace_at,
    sort_of_term,
    subterm_at,
)
from .derivation import Derivation, InstanceError, Sequent, _axiom, _int_param
from .derivation import checked_premises, derivation_to_obj, first_violation, from_obj, rule_params

MDerivation = Derivation
m_derivation_to_obj = derivation_to_obj  # the md name of the shared writer


class MSequent(Sequent):
    """A structural term -> a type."""

    arrow, _arrow_token = "->", "ARROW"
    _sort = staticmethod(sort_of_term)
    _parse_antecedent = staticmethod(_parse_term)

    @staticmethod
    def _read_antecedent(text: str, sig: Signature, table: dict):
        return parse_term(text, sig)


def parse_msequent(text: str, sig: Signature) -> MSequent:
    return MSequent.parse(text, sig)


def m_derivation_from_obj(obj: dict, sig: Signature) -> MDerivation:
    return from_obj(obj, sig, MSequent)


# ---------------------------------------------------------------------------
# rule instances
#
# The RULES table below mirrors hseq.RULES, rule for rule and in the same
# order.  A right rule's row is ("R", connective, shape): the succedent must
# have the connective, and shape(ant, succ) builds the premises.  A left
# rule acts on the redex at params["at"]; its side is the path of the
# principal leaf inside the redex ((), (0,) or (1,)), whose type must have
# the connective, and the redex's other child, if any, is the minor
# antecedent.  shape(principal type, minor) gives (redex, reduct, minor
# succedent): the instance fits when the redex is the subterm at "at", and
# its premises are minor -> minor succedent (for the binary rules) and the
# conclusion with the redex replaced by the reduct.


def _halves(ant, succ):
    return (MSequent(ant.left, succ.left), MSequent(ant.right, succ.right))


def _prod_r(ant, succ):
    if not isinstance(ant, Cat):
        raise InstanceError("ProdR needs a + antecedent")
    return _halves(ant, succ)


def _dprod_r(ant, succ):
    if not (isinstance(ant, WrapT) and ant.i == succ.k):
        raise InstanceError("DProdR needs a +k antecedent")
    return _halves(ant, succ)


# AXIOMS gives each axiom's antecedent from its succedent; a RULES row is
# rule: (side, connective, shape), where Id's connective is `object`
# because it applies to a succedent of any type
AXIOMS = {"Id": Leaf, "IR": lambda succ: ConstI(), "JR": lambda succ: ConstJ()}
RULES = {
    "Id": ("R", object, _axiom(AXIOMS["Id"])),
    "IR": ("R", UnitI, _axiom(AXIOMS["IR"])),
    "JR": ("R", UnitJ, _axiom(AXIOMS["JR"])),
    "UnderR": ("R", Under, lambda a, s: (MSequent(Cat(Leaf(s.left), a), s.right),)),
    "OverR": ("R", Over, lambda a, s: (MSequent(Cat(a, Leaf(s.right)), s.left),)),
    "DownR": ("R", DDown, lambda a, s: (MSequent(WrapT(s.k, Leaf(s.left), a), s.right),)),
    "UpR": ("R", DUp, lambda a, s: (MSequent(WrapT(s.k, a, Leaf(s.right)), s.left),)),
    "ProdR": ("R", Prod, _prod_r),
    "DProdR": ("R", DProd, _dprod_r),
    "ProdL": ((), Prod, lambda t, m: (Leaf(t), Cat(Leaf(t.left), Leaf(t.right)), None)),
    "DProdL": ((), DProd, lambda t, m: (Leaf(t), WrapT(t.k, Leaf(t.left), Leaf(t.right)), None)),
    "IL": ((), UnitI, lambda t, m: (Leaf(t), ConstI(), None)),
    "JL": ((), UnitJ, lambda t, m: (Leaf(t), ConstJ(), None)),
    "UnderL": ((1,), Under, lambda t, m: (Cat(m, Leaf(t)), Leaf(t.right), t.left)),
    "OverL": ((0,), Over, lambda t, m: (Cat(Leaf(t), m), Leaf(t.left), t.right)),
    "UpL": ((0,), DUp, lambda t, m: (WrapT(t.k, Leaf(t), m), Leaf(t.left), t.right)),
    "DownL": ((1,), DDown, lambda t, m: (WrapT(t.k, m, Leaf(t)), Leaf(t.right), t.left)),
}
# the parameters each rule takes: a left rule and Cut the address of their
# redex, a right rule none, and a Structural step its rewrite
PARAM_NAMES = {rule: frozenset(() if row[0] == "R" else ("at",)) for rule, row in RULES.items()}
PARAM_NAMES.update(Cut=frozenset(("at",)), Structural=frozenset(("at", "indices", "srule")))


def m_instance_premises(seq: MSequent, rule: str, params: dict) -> tuple:
    """Premise sequents of a logical rule instance (Cut and Structural are
    validated from their premises in check_m instead); raises InstanceError
    as hseq.instance_premises does."""
    return checked_premises(_m_instance_premises, seq, rule, params, PARAM_NAMES)


def _m_instance_premises(seq: MSequent, rule: str, params: dict) -> tuple:
    if rule not in RULES:
        raise InstanceError("unknown rule %r" % (rule,))
    side, connective, shape = RULES[rule]
    ant, succ = seq.antecedent, seq.succedent
    if side == "R":
        if not isinstance(succ, connective):
            raise InstanceError("%s needs a %s succedent" % (rule, connective.__name__))
        return shape(ant, succ)
    at = tuple(params["at"])
    sub = subterm_at(ant, at)
    leaf = subterm_at(sub, side)
    if not (isinstance(leaf, Leaf) and isinstance(leaf.type, connective)):
        raise InstanceError("%s needs a %s leaf" % (rule, connective.__name__))
    minor = subterm_at(sub, (1 - side[0],)) if side else None
    redex, reduct, minor_succ = shape(leaf.type, minor)
    if redex != sub:
        raise InstanceError("%s does not fit the subterm at %r" % (rule, at))
    major = MSequent(replace_at(ant, at, reduct), succ)
    return (major,) if minor is None else (MSequent(minor, minor_succ), major)


def structural_step(premise: MDerivation, app: RuleApp) -> MDerivation:
    """Extend a derivation with one antecedent rewrite step."""
    return _structural(premise, app, apply_rule(premise.conclusion.antecedent, app))


def _structural(premise: MDerivation, app: RuleApp, ant) -> MDerivation:
    """structural_step, given the rewritten antecedent (bridge's traces hold it)."""
    params = (("at", app.at), ("indices", app.params), ("srule", app.rule))
    return MDerivation("Structural", MSequent(ant, premise.conclusion.succedent), (premise,), params)


# ---------------------------------------------------------------------------
# checking


def check_m(d: MDerivation) -> bool:
    """Validate every inference of a derivation, its rewrite steps included."""
    return first_violation(d, check_m_node) is None


def check_m_node(d: MDerivation) -> bool:
    """Does this one inference follow, by its rule, from its premises?"""
    if d.rule == "Structural":
        if len(d.premises) != 1:
            return False
        p = d.premises[0].conclusion
        ps = rule_params(d.rule, d.params, PARAM_NAMES)
        app = RuleApp(ps["srule"], _int_param("at", ps["at"]), tuple(ps["indices"]))
        return (
            is_step(p.antecedent, app, d.conclusion.antecedent)
            and p.succedent == d.conclusion.succedent
        )
    if d.rule == "Cut":
        if len(d.premises) != 2:
            return False
        p1, p2 = d.premises[0].conclusion, d.premises[1].conclusion
        at = _int_param("at", rule_params(d.rule, d.params, PARAM_NAMES)["at"])
        return (
            subterm_at(p2.antecedent, at) == Leaf(p1.succedent)
            and d.conclusion.antecedent == replace_at(p2.antecedent, at, p1.antecedent)
            and d.conclusion.succedent == p2.succedent
        )
    want = m_instance_premises(d.conclusion, d.rule, d.params)
    return tuple(p.conclusion for p in d.premises) == want

