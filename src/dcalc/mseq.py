"""Sequent calculus over structural terms, with explicit rewrite steps.

Antecedents here are structural terms rather than configurations; the
logical rules mirror the configuration calculus one-for-one, acting on a
designated subterm, and a separate Structural rule applies one rewrite step
to the whole antecedent.  Derivations are the shared trees of
``derivation``; only the sequents and the single-node check
(``check_m_node``) belong to this calculus.  ``prove_m`` searches by
translating the sharp image to the configuration calculus and lifting the
proof found there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    DDown,
    DProd,
    DUp,
    Over,
    ParseError,
    Prod,
    Signature,
    SortError,
    Type,
    Under,
    UnitI,
    UnitJ,
    _parse_type_expr,
    _Scanner,
    sort_of_type,
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
    replace_at,
    sort_of_term,
    subterm_at,
)
from .derivation import Derivation, derivation_to_obj, first_violation, from_obj
from .hseq import InstanceError

MDerivation = Derivation
m_derivation_to_obj = derivation_to_obj  # the md name of the shared writer


@dataclass(frozen=True)
class MSequent:
    antecedent: object  # structural term
    succedent: Type

    def __post_init__(self):
        a = sort_of_term(self.antecedent)
        b = sort_of_type(self.succedent)
        if a != b:
            raise SortError(
                "antecedent sort %d does not match succedent sort %d" % (a, b)
            )

    def __str__(self):
        return "%s -> %s" % (self.antecedent, self.succedent)


def parse_msequent(text: str, sig: Signature) -> MSequent:
    sc = _Scanner(text)
    t = _parse_term(sc, sig)
    sc.expect("ARROW")
    ty = _parse_type_expr(sc, sig)
    if not sc.at_end():
        sc.error("trailing input after sequent")
    try:
        return MSequent(t, ty)
    except SortError as exc:
        raise ParseError(str(exc)) from exc


def m_derivation_from_obj(obj: dict, sig: Signature) -> MDerivation:
    return from_obj(obj, sig, parse_msequent)


# ---------------------------------------------------------------------------
# rule instances


def m_instance_premises(seq: MSequent, rule: str, params: dict) -> tuple:
    """Premise sequents of a logical rule instance (Cut and Structural are
    validated from their premises in check_m instead)."""
    try:
        return _m_instance_premises(seq, rule, dict(params))
    except (SortError, IndexError, KeyError) as exc:
        raise InstanceError(str(exc)) from exc


def _m_instance_premises(seq: MSequent, rule: str, params: dict) -> tuple:
    ant, succ = seq.antecedent, seq.succedent
    if rule == "Id":
        if ant != Leaf(succ):
            raise InstanceError("Id needs a type leaf antecedent")
        return ()
    if rule == "IR":
        if not (isinstance(succ, UnitI) and isinstance(ant, ConstI)):
            raise InstanceError("IR is II -> I")
        return ()
    if rule == "JR":
        if not (isinstance(succ, UnitJ) and isinstance(ant, ConstJ)):
            raise InstanceError("JR is JJ -> J")
        return ()
    if rule == "UnderR":
        if not isinstance(succ, Under):
            raise InstanceError("UnderR needs a \\ succedent")
        return (MSequent(Cat(Leaf(succ.left), ant), succ.right),)
    if rule == "OverR":
        if not isinstance(succ, Over):
            raise InstanceError("OverR needs a / succedent")
        return (MSequent(Cat(ant, Leaf(succ.right)), succ.left),)
    if rule == "DownR":
        if not isinstance(succ, DDown):
            raise InstanceError("DownR needs a ! succedent")
        return (MSequent(WrapT(succ.k, Leaf(succ.left), ant), succ.right),)
    if rule == "UpR":
        if not isinstance(succ, DUp):
            raise InstanceError("UpR needs a ^ succedent")
        return (MSequent(WrapT(succ.k, ant, Leaf(succ.right)), succ.left),)
    if rule == "ProdR":
        if not (isinstance(succ, Prod) and isinstance(ant, Cat)):
            raise InstanceError("ProdR needs a . succedent and a + antecedent")
        return (MSequent(ant.left, succ.left), MSequent(ant.right, succ.right))
    if rule == "DProdR":
        if not (isinstance(succ, DProd) and isinstance(ant, WrapT) and ant.i == succ.k):
            raise InstanceError("DProdR needs an @k succedent and a +k antecedent")
        return (MSequent(ant.left, succ.left), MSequent(ant.right, succ.right))

    at = tuple(params["at"])
    sub = subterm_at(ant, at)
    if rule == "IL":
        if sub != Leaf(UnitI()):
            raise InstanceError("IL needs an I leaf")
        return (MSequent(replace_at(ant, at, ConstI()), succ),)
    if rule == "JL":
        if sub != Leaf(UnitJ()):
            raise InstanceError("JL needs a J leaf")
        return (MSequent(replace_at(ant, at, ConstJ()), succ),)
    if rule == "ProdL":
        ok = isinstance(sub, Leaf) and isinstance(sub.type, Prod)
        if not ok:
            raise InstanceError("ProdL needs a . leaf")
        t = sub.type
        return (MSequent(replace_at(ant, at, Cat(Leaf(t.left), Leaf(t.right))), succ),)
    if rule == "DProdL":
        ok = isinstance(sub, Leaf) and isinstance(sub.type, DProd)
        if not ok:
            raise InstanceError("DProdL needs an @ leaf")
        t = sub.type
        return (
            MSequent(replace_at(ant, at, WrapT(t.k, Leaf(t.left), Leaf(t.right))), succ),
        )
    if rule == "UnderL":
        ok = (
            isinstance(sub, Cat)
            and isinstance(sub.right, Leaf)
            and isinstance(sub.right.type, Under)
        )
        if not ok:
            raise InstanceError("UnderL needs a (_ + A\\B leaf) subterm")
        t = sub.right.type
        return (
            MSequent(sub.left, t.left),
            MSequent(replace_at(ant, at, Leaf(t.right)), succ),
        )
    if rule == "OverL":
        ok = (
            isinstance(sub, Cat)
            and isinstance(sub.left, Leaf)
            and isinstance(sub.left.type, Over)
        )
        if not ok:
            raise InstanceError("OverL needs a (B/A leaf + _) subterm")
        t = sub.left.type
        return (
            MSequent(sub.right, t.right),
            MSequent(replace_at(ant, at, Leaf(t.left)), succ),
        )
    if rule == "UpL":
        ok = (
            isinstance(sub, WrapT)
            and isinstance(sub.left, Leaf)
            and isinstance(sub.left.type, DUp)
            and sub.left.type.k == sub.i
        )
        if not ok:
            raise InstanceError("UpL needs a (C^k(B) leaf +k _) subterm")
        t = sub.left.type
        return (
            MSequent(sub.right, t.right),
            MSequent(replace_at(ant, at, Leaf(t.left)), succ),
        )
    if rule == "DownL":
        ok = (
            isinstance(sub, WrapT)
            and isinstance(sub.right, Leaf)
            and isinstance(sub.right.type, DDown)
            and sub.right.type.k == sub.i
        )
        if not ok:
            raise InstanceError("DownL needs a (_ +k A!kC leaf) subterm")
        t = sub.right.type
        return (
            MSequent(sub.left, t.left),
            MSequent(replace_at(ant, at, Leaf(t.right)), succ),
        )
    raise InstanceError("unknown rule %r" % (rule,))


def structural_step(premise: MDerivation, app: RuleApp) -> MDerivation:
    """Extend a derivation with one antecedent rewrite step."""
    seq = premise.conclusion
    new_ant = apply_rule(seq.antecedent, app)
    params = (("at", app.at), ("indices", app.params), ("srule", app.rule))
    return MDerivation(
        "Structural", MSequent(new_ant, seq.succedent), (premise,), params
    )


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
        ps = d.params_dict()
        app = RuleApp(ps["srule"], tuple(ps["at"]), tuple(ps["indices"]))
        return (
            apply_rule(p.antecedent, app) == d.conclusion.antecedent
            and p.succedent == d.conclusion.succedent
        )
    if d.rule == "Cut":
        if len(d.premises) != 2:
            return False
        p1, p2 = d.premises[0].conclusion, d.premises[1].conclusion
        at = tuple(d.params_dict()["at"])
        return (
            subterm_at(p2.antecedent, at) == Leaf(p1.succedent)
            and d.conclusion.antecedent == replace_at(p2.antecedent, at, p1.antecedent)
            and d.conclusion.succedent == p2.succedent
        )
    want = m_instance_premises(d.conclusion, d.rule, d.params_dict())
    return tuple(p.conclusion for p in d.premises) == want


def prove_m(seq: MSequent):
    """Search via the configuration calculus and lift the result."""
    from .bridge import lift
    from .hseq import HSequent, prove
    from .terms import sharp

    found = prove(HSequent(sharp(seq.antecedent), seq.succedent))
    if found is None:
        return None
    return lift(found, target=seq.antecedent)

