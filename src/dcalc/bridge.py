"""Round-trip translation between the two sequent presentations.

``lift`` turns a configuration derivation into a term derivation whose
antecedent denotes the same configuration, inserting explicit Structural
rewrite steps wherever the term shape has to be adjusted; every lifted
subproof ends at the canonical term of its configuration, which is what
makes the induction go through.  ``lower`` erases the rewrite steps and maps
each logical rule back to a configuration rule instance.  ``prove_m``
searches for a term sequent's proof by proving its sharp image and lifting.

The Structural chains are built from the rewrite traces of ``normalize``,
``invert_trace`` and ``extract``: each step of a trace was applied, or, in
an inverted trace, checked in place against the term the forward trace
holds, when the trace was made, so lift takes each Structural node's
antecedent from the term stored in the step rather than rewriting again.

Each configuration derivation node stores its canonical lift once built, as
types store their figure: a second ``lift`` of the same derivation, onto any
target, reuses it and only reshapes, and a subderivation that ``prove``
shares between premises is lifted once.  The stored lift refers to no node
of the derivation, so both are freed together.
"""

from __future__ import annotations

from .derivation import InstanceError
from .syntax import (
    Separator,
    _stored,
    flatten,
    item_at,
    iter_items,
)
from .hseq import (
    HDerivation,
    HSequent,
    check_node,
    enumerate_rule_instances,
    prove,
)
from .mseq import AXIOMS, RULES as M_RULES, MDerivation, MSequent, _structural, m_instance_premises

# unused here, but the benchmark's traced run wraps bridge.structural_step
# (perfbench/ops.py TRACED_IMPORTS) and stops when the name is missing
from .mseq import structural_step  # noqa: F401
from .terms import (
    Cat,
    ExtractionError,
    WrapT,
    _leaf_path,
    _marked_image,
    extract,
    invert_trace,
    normalize,
    replace_at,
    sharp,
    term_of_config,
    term_of_config_with_addr,
)


class BridgeError(ValueError):
    """A derivation that cannot be carried across the translation."""


# ---------------------------------------------------------------------------
# lifting


def _append_trace(md: MDerivation, trace) -> MDerivation:
    """md extended by one Structural step per trace step, each ending at the
    term the trace stored for it (the trace applied or checked the step)."""
    assert trace.start == md.conclusion.antecedent
    for step in trace.steps:
        md = _structural(md, step.app, step.result)
    return md


def _finish(md: MDerivation) -> MDerivation:
    """Normalize the end antecedent to the canonical term of its sharp."""
    return _append_trace(md, normalize(md.conclusion.antecedent))


def _reshape_to(md: MDerivation, w) -> MDerivation:
    """Rewrite the (canonical) end antecedent into the sharp-equal term w."""
    trace = invert_trace(normalize(w))
    return _append_trace(md, trace)


def prove_m(seq: MSequent):
    """Search via the configuration calculus and lift the result."""
    found = prove(HSequent(sharp(seq.antecedent), seq.succedent))
    return None if found is None else lift(found, target=seq.antecedent)


def lift(d: HDerivation, target=None) -> MDerivation:
    """Translate a configuration derivation into a term derivation.

    The result ends at the canonical term of the end antecedent, or at
    `target` (any term with the same sharp image) when given.
    """
    md = _lift(d)
    if target is not None:
        if flatten(sharp(target)) != flatten(d.conclusion.antecedent):
            raise BridgeError("target term does not denote the end configuration")
        md = _reshape_to(md, target)
    return md


def _lift(d: HDerivation) -> MDerivation:
    """The lift of d to its canonical term, which d stores once built."""
    return _stored(d, "_lifted", _lift_node)


def _lift_node(d: HDerivation) -> MDerivation:
    seq = d.conclusion
    succ = seq.succedent
    rule = d.rule
    params = d.params_dict()

    if rule in AXIOMS:
        return _finish(MDerivation(rule, MSequent(AXIOMS[rule](succ), succ), (), ()))

    if rule in ("UnderR", "OverR", "DownR", "IL", "JL", "ProdL", "DProdL"):
        child = _lift(d.premises[0])
        if "at" in params:
            v, leaf_path = term_of_config_with_addr(seq.antecedent, tuple(params["at"]))
            ps = (("at", leaf_path),)
        else:
            v, ps = term_of_config(seq.antecedent), ()
        # _reshape_to asserts that the premise term reaches the child's
        # canonical end antecedent, so both denote the same configuration
        (prem,) = m_instance_premises(MSequent(v, succ), rule, dict(ps))
        child = _reshape_to(child, prem.antecedent)
        return MDerivation(rule, MSequent(v, succ), (child,), ps)

    if rule == "UpR":
        child = _lift(d.premises[0])
        # the premise's figure of succ.right has the place in flat order of
        # the conclusion's succ.k-th separator
        items = iter_items(seq.antecedent)
        seps = [n for n, (_, item) in enumerate(items) if type(item) is Separator]
        if len(seps) < succ.k:
            raise BridgeError("configuration has no separator %d" % succ.k)
        canon = child.conclusion.antecedent
        rest, i, trace = extract(canon, _leaf_path(canon, seps[succ.k - 1]))
        assert i == succ.k
        child = _append_trace(child, trace)
        md = MDerivation(rule, MSequent(rest, succ), (child,), ())
        return _finish(md)

    if rule in ("ProdR", "DProdR"):
        c1 = _lift(d.premises[0])
        c2 = _lift(d.premises[1])
        t1 = c1.conclusion.antecedent
        t2 = c2.conclusion.antecedent
        ant = Cat(t1, t2) if rule == "ProdR" else WrapT(succ.k, t1, t2)
        md = MDerivation(rule, MSequent(ant, succ), (c1, c2), ())
        return _finish(md)

    if rule in ("UnderL", "OverL", "UpL", "DownL", "Cut"):
        c1 = _lift(d.premises[0])
        c2 = _lift(d.premises[1])
        addr = tuple(params["at"])
        # the second premise has the reduct (or the cut formula) where the
        # principal item's region starts
        introduced = addr[:-1] + (params.get("mstart", addr[-1]),)
        prem2_ant = d.premises[1].conclusion.antecedent
        v2, leaf_path = term_of_config_with_addr(prem2_ant, introduced)
        assert v2 == c2.conclusion.antecedent
        t1 = c1.conclusion.antecedent
        if rule == "Cut":
            plug = t1
        else:
            principal = item_at(seq.antecedent, addr).type
            plug, _, _ = M_RULES[rule][2](principal, t1)
        v_prime = replace_at(v2, leaf_path, plug)
        assert flatten(sharp(v_prime)) == flatten(seq.antecedent)
        md = MDerivation(rule, MSequent(v_prime, succ), (c1, c2), (("at", leaf_path),))
        return _finish(md)

    raise BridgeError("cannot lift rule %r" % (rule,))


# ---------------------------------------------------------------------------
# lowering


_PREMISE_COUNTS = {"Structural": 1, "Cut": 2, **dict.fromkeys(AXIOMS, 0)}


def lower(md: MDerivation) -> HDerivation:
    """Translate a term derivation back, erasing the rewrite steps.  A node
    whose premise count its rule does not allow raises BridgeError."""
    while md.rule == "Structural" and len(md.premises) == 1:
        md = md.premises[0]
    if len(md.premises) != _PREMISE_COUNTS.get(md.rule, len(md.premises)):
        raise BridgeError("%s takes %d premises" % (md.rule, _PREMISE_COUNTS[md.rule]))
    seq = md.conclusion
    target = HSequent(sharp(seq.antecedent), seq.succedent)
    if md.rule in AXIOMS:
        return HDerivation(md.rule, target, (), ())
    lowered = tuple(lower(p) for p in md.premises)
    if md.rule == "Cut":
        # the cut item: where the leaf at the Cut's path lands in the image
        try:
            at = md.params_dict()["at"]
            marker, image = _marked_image(md.premises[1].conclusion.antecedent, at)
        except (InstanceError, ExtractionError) as exc:
            raise BridgeError("Cut: %s" % exc) from None
        addr = next(a for a, item in iter_items(image) if getattr(item, "type", None) == marker)
        cut = HDerivation("Cut", target, lowered, (("at", addr),))
        if check_node(cut):
            return cut
        raise BridgeError("no matching cut position")
    want = tuple(l.conclusion for l in lowered)
    for rule, params, premises in enumerate_rule_instances(target, only_rule=md.rule):
        if premises == want:
            return HDerivation(rule, target, lowered, params)
    raise BridgeError("no %s instance matches the lowered premises" % md.rule)
