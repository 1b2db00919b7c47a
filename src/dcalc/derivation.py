"""Sequents and derivation trees shared by both sequent calculi.

The calculi are one logic over two kinds of antecedent, configurations in
``hseq`` and structural terms in ``mseq``.  ``Sequent`` states their sort
law, their text form ``antecedent arrow type`` and its parser once; each
calculus's subclass names its arrow and how to read and sort its
antecedent.  The logical rules correspond one for one, so derivations are
the same trees: a rule name, a conclusion, premise derivations and the
rule's parameters.  Only the term calculus adds Structural steps, whose
rewrite ``indices`` are the one parameter written as a JSON object.
Serialising, rendering, the checking walk, the axioms' premise shape and
how an instance that does not fit fails (``InstanceError``) are defined
here once; each calculus supplies its rule table and single-node check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .syntax import ParseError, SortError, Type, _parse_type_expr, _Scanner, parse_type, sort_of_type


class InstanceError(ValueError):
    """A rule instance whose parameters do not fit the sequent."""


@dataclass(frozen=True)
class Sequent:
    """An antecedent and a succedent type of the same sort.  A subclass sets
    `arrow` and its scanner token `_arrow_token`, and `_sort`,
    `_parse_antecedent` and `_read_antecedent` for its kind of antecedent."""

    antecedent: object
    succedent: Type

    def __post_init__(self):
        a = self._sort(self.antecedent)
        b = sort_of_type(self.succedent)
        if a != b:
            raise SortError("antecedent sort %d does not match succedent sort %d" % (a, b))

    def __str__(self):
        return "%s %s %s" % (self.antecedent, self.arrow, self.succedent)

    @classmethod
    def parse(cls, text: str, sig):
        """Read `antecedent arrow type`; a sort mismatch is a ParseError."""
        sc = _Scanner(text)
        ant = cls._parse_antecedent(sc, sig)
        sc.expect(cls._arrow_token)
        succ = _parse_type_expr(sc, sig)
        if not sc.at_end():
            sc.error("trailing input after sequent")
        try:
            return cls(ant, succ)
        except SortError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def _read(cls, text: str, sig, table: dict):
        """parse, where the sequents of one read share `table`: the text is
        split at its first arrow, and the antecedent by `_read_antecedent`.
        Each part is parsed alone when its text, less the blanks around it,
        is first met, and the table keeps each type once by value.  Only the
        comma token holds a `,`, and only the arrows `=`, `-` or `>`, so a
        text whose parts each parse alone parses whole to the same value;
        any other text goes to `parse`, which raises what it gives alone."""
        ant, arrow, succ = text.partition(cls.arrow)
        if arrow:
            try:
                key = arrow + succ.strip(" \t")  # no antecedent part holds the arrow
                t = table.get(key)
                if t is None:
                    t = parse_type(succ, sig)
                    t = table[key] = table.setdefault(t, t)
                return cls(cls._read_antecedent(ant, sig, table), t)
            except (ValueError, RecursionError):
                pass
        return cls.parse(text, sig)


def _axiom(want):
    """Premise function of an axiom, which fits when the antecedent is
    want(succ); hseq calls it with params, mseq without."""

    def premises(ant, succ, params=None):
        if ant != want(succ):
            # constant text: Id fails at almost every subgoal of a search
            raise InstanceError("the antecedent does not fit the axiom")
        return ()

    return premises


def checked_premises(premises, seq: Sequent, rule: str, params, names: dict) -> tuple:
    """premises(seq, rule, params) of a logical rule, params a dict or a
    node's (name, value) pairs, where a missing parameter, one not of its
    shape (see _int_param), one the rule does not take (see rule_params)
    and every failure to fit raise InstanceError."""
    params = rule_params(rule, {k: _int_param(k, v) for k, v in dict(params).items()}, names)
    try:
        return premises(seq, rule, params)
    except (SortError, IndexError, KeyError, TypeError) as exc:
        raise InstanceError(str(exc)) from exc


def rule_params(rule: str, params, names: dict) -> dict:
    """params, a dict or a node's (name, value) pairs, by name, where
    asking for a missing one raises InstanceError; so does a name not among
    names[rule], the parameters the rule takes.  A rule not in names is
    not checked here, as its calculus rejects it whatever it carries."""
    params = _Params(params)
    taken = names.get(rule)
    if taken is not None and not taken.issuperset(params):
        raise InstanceError("%s takes no parameter %r" % (rule, min(params.keys() - taken)))
    return params


class _Params(dict):
    """A node's rule parameters by name."""

    def __missing__(self, name):
        raise InstanceError("missing rule parameter %r" % (name,))


_INT = frozenset((int,))
_LIST = [int]  # an address, a term path or a level
_EXCISION = (_LIST, int, int)  # level, start, end

# each logical rule parameter's shape and its name in an error: int, [s] a
# list of values of shape s, (s, t, ...) a list of one value of each shape
_SHAPES = dict.fromkeys(("k", "split", "mstart", "mend"), (int, "an integer"))
_SHAPES.update(at=(_LIST, "a list of integers"), excise=(_EXCISION, "a list [level, start, end]"),
               chunks=([_EXCISION], "a list of lists [level, start, end]"))


def _int_param(name: str, v):
    """The rule parameter `name` with its lists made tuples; a name not in
    _SHAPES or a value not of its shape raises InstanceError naming it."""
    shape, text = _SHAPES.get(name, (None, "a parameter of the logical rules"))
    value = _shaped(v, shape)
    if value is None:
        raise InstanceError("rule parameter %r is not %s" % (name, text))
    return value


def _shaped(v, shape):
    """v with its lists made tuples when it has the shape, else None."""
    if type(shape) not in (list, tuple) or not isinstance(v, (list, tuple)):
        return v if shape is int and type(v) is int else None  # not True or 1.0, though == 1
    if shape is _LIST:  # as in every address: plain ints
        return tuple(v) if _INT.issuperset(map(type, v)) else None
    shapes = shape * len(v) if type(shape) is list else shape
    items = tuple(map(_shaped, v, shapes))
    return items if len(v) == len(shapes) and None not in items else None


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple = ()
    params: tuple = ()
    _checked = None  # the node_ok that passed this subtree; not a field

    def params_dict(self) -> dict:
        """The parameters by name; asking for a missing one raises
        InstanceError."""
        return _Params(self.params)


# ---------------------------------------------------------------------------
# checking


def first_violation(d: Derivation, node_ok):
    """The first node, in post-order, whose own inference `node_ok` rejects;
    None when every inference is valid.  Ill-formed parameters reject too.
    A node whose subtree passes stores `node_ok` as its verdict, the way it
    stores its lift, and a later walk with the same `node_ok` skips it."""
    stack = [(d, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            if node._checked is not node_ok:
                stack.append((node, True))
                stack.extend((p, False) for p in reversed(node.premises))
            continue
        try:
            if node_ok(node):
                object.__setattr__(node, "_checked", node_ok)
                continue
        except _REJECTED:
            pass
        return node
    return None


_REJECTED = (ValueError, IndexError, KeyError, TypeError)


def violation_reason(node: Derivation, node_ok) -> str:
    """Why `node_ok` rejects node: the text of what it raised, or a fixed
    phrase when it returned False."""
    try:
        node_ok(node)
    except _REJECTED as exc:
        return str(exc)
    return "the premises do not follow by the rule"


# ---------------------------------------------------------------------------
# serialization


def _to_jsonable(v):
    if isinstance(v, (tuple, list)):
        return [_to_jsonable(x) for x in v]
    return v


def _param_value(v):
    """A rule parameter read from JSON, with its lists made tuples; a
    Boolean or float leaf is a ParseError, because True == 1 == 1.0 would
    pass as an index."""
    if isinstance(v, (list, tuple)):
        if _INT.issuperset(map(type, v)):  # plain ints, as in every address: all fine
            return tuple(v)
        return tuple(_param_value(x) for x in v)
    if isinstance(v, (bool, float)):
        raise ParseError("rule parameter %s is not an integer or string" % json.dumps(v))
    return v


def _index(v):
    if type(v) is not int:  # a rewrite index is a JSON integer, never true, 1.0 or "1"
        raise ParseError("rewrite index %s is not an integer" % json.dumps(v))
    return v


_JSON_NAMES = {dict: "object", list: "list", str: "string"}


def _expect(value, kind, what: str):
    if not isinstance(value, kind):
        raise ParseError("%s must be a JSON %s" % (what, _JSON_NAMES[kind]))
    return value


def params_to_obj(params: tuple) -> dict:
    return {k: dict(v) if k == "indices" else _to_jsonable(v) for k, v in params}


def params_from_obj(obj: dict) -> tuple:
    items = []
    for k, v in _expect(obj, dict, "params").items():
        if k == "indices":
            indices = _expect(v, dict, "indices").items()
            items.append((k, tuple(sorted((n, _index(x)) for n, x in indices))))
        else:
            items.append((k, _param_value(v)))
    return tuple(sorted(items))


def derivation_to_obj(d: Derivation) -> dict:
    """Nested dicts with the keys rule, sequent, params and premises; the walk
    keeps its own stack, so a long Structural chain converts too."""
    root = {}
    stack = [(d, root)]
    while stack:
        node, obj = stack.pop()
        premises = [{} for _ in node.premises]
        obj.update(rule=node.rule, sequent=str(node.conclusion),
                   params=params_to_obj(node.params), premises=premises)
        stack.extend(zip(node.premises, premises))
    return root


_LITERAL = object()  # tags a stack entry whose second field is text to write
_SPAN = object()  # tags a stack entry whose second field is (key, start) of a node's text


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for a JSON
    value with string keys in which a Derivation stands for its
    derivation_to_obj dict.  Derivations are written from their nodes: each
    node's sequent is escaped once, and a subtree met again at an indent it
    was written at repeats its parts (nodes are keyed by id, safe as `obj`
    holds them all for the call).  The walk keeps its own stack, so a long
    Structural chain writes too."""
    parts = []
    sequents = {}  # id(node): its escaped sequent text
    spans = {}  # (id(node), indent width): where its text is in parts
    stack = [(obj, "")]  # (value, indent of its line), (_LITERAL, text) or (_SPAN, (key, start))
    while stack:
        value, pad = stack.pop()
        if value is _LITERAL:
            parts.append(pad)
            continue
        if value is _SPAN:
            key, start = pad
            spans[key] = start, len(parts)
            continue
        if isinstance(value, Derivation):
            key = id(value), len(pad)
            span = spans.get(key)
            if span is not None:
                parts += parts[span[0]:span[1]]  # references, not characters
                continue
            seq = sequents.get(key[0])
            if seq is None:
                seq = sequents[key[0]] = encode_basestring_ascii(str(value.conclusion))
            inner = pad + "  "
            stack.append((_SPAN, (key, len(parts))))
            stack.append((_LITERAL, ",\n%s\"rule\": %s,\n%s\"sequent\": %s\n%s}"
                          % (inner, encode_basestring_ascii(value.rule), inner, seq, pad)))
            stack.append((value.premises, inner))
            stack.append((_LITERAL, ",\n%s\"premises\": " % inner))
            stack.append((params_to_obj(value.params), inner))
            parts.append("{\n%s\"params\": " % inner)
            continue
        if isinstance(value, dict):
            brackets = "{}"
            entries = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(value.items())]
        elif isinstance(value, (list, tuple)):
            brackets = "[]"
            entries = [("", v) for v in value]
        else:
            if isinstance(value, str):
                parts.append(encode_basestring_ascii(value))
            else:  # an int as json.dumps writes it, which a bool is not
                parts.append(str(value) if type(value) is int else json.dumps(value))
            continue
        if not entries:
            parts.append(brackets)
            continue
        parts.append(brackets[0])
        stack.append((_LITERAL, "\n" + pad + brackets[1]))
        inner = pad + "  "
        for n in range(len(entries) - 1, -1, -1):
            key, v = entries[n]
            stack.append((v, inner))
            stack.append((_LITERAL, ("," if n else "") + "\n" + inner + key))
    return "".join(parts)


def from_obj(obj: dict, sig, sequent) -> Derivation:
    """Read a derivation whose conclusions are of the `sequent` class.

    Each distinct sequent text is parsed once, by `sequent._read` with a
    table kept for this read alone, so each distinct antecedent part and
    succedent text is parsed once too and equal types share one object;
    errors are those of `sequent.parse` on the text alone.  Equal subtrees
    come back as one node, so a walk that stores verdicts or lifts does
    each once (nodes are keyed by the ids of their sequent and premises,
    safe as `nodes` holds them all for the read).  A node's sequent is
    read before its premises, its rule and params after them; the walk
    keeps its own stack, so a long Structural chain reads too."""
    parsed = {}
    table = {}
    nodes = {}
    done = []  # the nodes read so far whose parent is not finished yet
    stack = [(obj, None, 0)]  # (node, its sequent once expanded, premise count)
    while stack:
        node, seq, n = stack.pop()
        if seq is None:
            _expect(node, dict, "a derivation node")
            text = _expect(node.get("sequent"), str, "sequent")
            seq = parsed.get(text)
            if seq is None:
                seq = parsed[text] = sequent._read(text, sig, table)
            premises = _expect(node.get("premises", []), list, "premises")
            stack.append((node, seq, len(premises)))
            stack.extend((p, None, 0) for p in reversed(premises))
            continue
        premises = tuple(done[len(done) - n:])
        del done[len(done) - n:]
        rule = _expect(node.get("rule"), str, "rule")
        params = params_from_obj(node.get("params", {}))
        key = rule, id(seq), params, tuple(map(id, premises))
        try:
            d = nodes.get(key) or nodes.setdefault(key, Derivation(rule, seq, premises, params))
        except TypeError:  # an unhashable JSON object among the params: the node stays its own
            d = Derivation(rule, seq, premises, params)
        done.append(d)
    return done[0]


# ---------------------------------------------------------------------------
# rendering


def derivation_text(d: Derivation) -> str:
    """One line per node, in pre-order, indented by depth; the walk keeps
    its own stack, so a long Structural chain renders too."""
    lines = []
    stack = [(d, 0)]
    while stack:
        node, depth = stack.pop()
        ps = ", ".join("%s=%s" % (k, v) for k, v in node.params)
        tag = node.rule + (" " + ps if ps else "")
        lines.append("%s[%s] %s" % ("  " * depth, tag, node.conclusion))
        stack.extend((p, depth + 1) for p in reversed(node.premises))
    return "\n".join(lines)


_LATEX_MAP = {
    "\\": "\\textbackslash ",
    "{": "\\{",
    "}": "\\}",
    "^": "\\^{}",
    "_": "\\_",
    "&": "\\&",
    "%": "\\%",
    "#": "\\#",
    "~": "\\~{}",
}


def latex_escape(s: str) -> str:
    return "".join(_LATEX_MAP.get(c, c) for c in s)


def derivation_latex(d: Derivation) -> str:
    """A proof.sty \\infer tree with sequents set verbatim; the walk keeps its
    own stack, so a long Structural chain renders too."""
    parts = []
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        concl = "\\texttt{%s}" % latex_escape(str(node.conclusion))
        parts.append("\\infer[\\mathrm{%s}]{%s}{" % (latex_escape(node.rule), concl))
        stack.append("}")
        for n, p in enumerate(reversed(node.premises)):
            stack.extend((" & ", p) if n else (p,))
    return "".join(parts)
