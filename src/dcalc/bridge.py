"""Round-trip translation between the two sequent presentations.

``lift`` turns a configuration derivation into a term derivation whose
antecedent denotes the same configuration, inserting explicit Structural
rewrite steps wherever the term shape has to be adjusted; every lifted
subproof ends at the canonical term of its configuration, which is what
makes the induction go through.  ``lower`` erases the rewrite steps and maps
each logical rule back to a configuration rule instance.

The Structural chains are built from the rewrite traces of ``normalize``,
``invert_trace`` and ``extract``: each step of a trace was applied and checked
when the trace was made, so lift takes each Structural node's antecedent
from the term stored in the step rather than rewriting again.
"""

from __future__ import annotations

from .syntax import (
    Separator,
    flatten,
    generalized_wrap,
    item_at,
    iter_items,
    splice_item,
)
from .hseq import (
    HDerivation,
    HSequent,
    _item_gaps,
    enumerate_rule_instances,
)
from .mseq import RULES as M_RULES, MDerivation, MSequent, m_instance_premises

# unused here, but the benchmark's traced run wraps bridge.structural_step
# (perfbench/ops.py TRACED_IMPORTS) and stops when the name is missing
from .mseq import structural_step  # noqa: F401
from .terms import (
    Cat,
    ConstI,
    ConstJ,
    Leaf,
    WrapT,
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


def correspondence_check(hd: HDerivation, md: MDerivation) -> bool:
    """The two end-sequents denote the same configuration judgement."""
    return (
        flatten(sharp(md.conclusion.antecedent)) == flatten(hd.conclusion.antecedent)
        and md.conclusion.succedent == hd.conclusion.succedent
    )


# ---------------------------------------------------------------------------
# lifting


def _append_trace(md: MDerivation, trace) -> MDerivation:
    """md extended by one Structural step per trace step, each ending at the
    term the trace stored for it (the trace's Tracer applied the step)."""
    assert trace.start == md.conclusion.antecedent
    succ = md.conclusion.succedent
    out = md
    for step in trace.steps:
        app = step.app
        params = (("at", app.at), ("indices", app.params), ("srule", app.rule))
        out = MDerivation("Structural", MSequent(step.result, succ), (out,), params)
    return out


def _finish(md: MDerivation) -> MDerivation:
    """Normalize the end antecedent to the canonical term of its sharp."""
    return _append_trace(md, normalize(md.conclusion.antecedent))


def _reshape_to(md: MDerivation, w) -> MDerivation:
    """Rewrite the (canonical) end antecedent into the sharp-equal term w."""
    trace = invert_trace(normalize(w))
    return _append_trace(md, trace)


def _sep_addr(cfg, k: int) -> tuple:
    n = 0
    for addr, item in iter_items(cfg):
        if isinstance(item, Separator):
            n += 1
            if n == k:
                return addr
    raise BridgeError("configuration has no separator %d" % k)


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
    seq = d.conclusion
    succ = seq.succedent
    rule = d.rule
    params = d.params_dict()

    if rule == "Id":
        md = MDerivation("Id", MSequent(Leaf(succ), succ), (), ())
        return _finish(md)
    if rule == "IR":
        return _finish(MDerivation("IR", MSequent(ConstI(), succ), (), ()))
    if rule == "JR":
        return _finish(MDerivation("JR", MSequent(ConstJ(), succ), (), ()))

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
        prem_ant = d.premises[0].conclusion.antecedent
        addr = _sep_addr(seq.antecedent, succ.k)
        canon, leaf_path = term_of_config_with_addr(prem_ant, addr)
        assert canon == child.conclusion.antecedent
        rest, i, trace = extract(canon, leaf_path)
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


def lower(md: MDerivation) -> HDerivation:
    """Translate a term derivation back, erasing the rewrite steps."""
    while md.rule == "Structural":
        md = md.premises[0]
    seq = md.conclusion
    target = HSequent(sharp(seq.antecedent), seq.succedent)
    if md.rule in ("Id", "IR", "JR"):
        return HDerivation(md.rule, target, (), ())
    lowered = tuple(lower(p) for p in md.premises)
    if md.rule == "Cut":
        h1, h2 = lowered
        a = h1.conclusion.succedent
        for addr, item in iter_items(h2.conclusion.antecedent):
            if isinstance(item, Separator) or item.type != a:
                continue
            plugged = generalized_wrap(h1.conclusion.antecedent, _item_gaps(item))
            cand = splice_item(h2.conclusion.antecedent, addr, plugged.items)
            if cand == target.antecedent:
                return HDerivation("Cut", target, lowered, (("at", addr),))
        raise BridgeError("no matching cut position")
    want = tuple(l.conclusion for l in lowered)
    for rule, params, premises in enumerate_rule_instances(target, only_rule=md.rule):
        if premises == want:
            return HDerivation(rule, target, lowered, params)
    raise BridgeError("no %s instance matches the lowered premises" % md.rule)
