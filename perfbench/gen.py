"""Seeded input generators for the benchmark workloads, and the plain forms
of types and structural terms that every generator shares.

The generators are the benchmark's own: a later edit to the test helpers
does not change a workload.  Each workload's inputs are a list of rounds.  A
round is a fixed mix of input classes, and the seed only decides which member
of each class is drawn, so runs with different seeds do the same kind and
amount of work.  Inputs are drawn from one random stream per workload and
class, so the first rounds of a seed do not depend on how many are drawn.

This module does not import the program, so the ``rewrite`` and ``parse``
inputs cannot change with it.  The ``search`` and ``roundtrip`` inputs come
from ``derivs.py``, which builds derivations with the program's types.

Every input carries a known answer that does not come from the program under
test alone:

- unprovable sequents and sentences without a reading are certified by the
  atom-count invariant (``balance``): in a provable sequent each atom has the
  same polarity-weighted count in the antecedent as in the succedent;
- provable sequents are provable by construction: they are end-sequents of
  derivations built forward rule by rule, or members of a family with a
  known proof;
- the configuration a term denotes, and the index at which a leaf can be
  extracted, are computed here from the term's own structure (``flat``).
"""

from __future__ import annotations

import random
from collections import Counter

# ---------------------------------------------------------------------------
# types: a plain tuple form, its text, and the atom-count invariant
#
# ("atom", name) | ("I",) | ("J",) | (op, left, right) for op in prod, under,
# over | (op, k, left, right) for op in dprod, ddown, dup.

_OPS = {"prod": ".", "under": "\\", "over": "/", "dprod": "@", "ddown": "!", "dup": "^"}


def type_text(t) -> str:
    if t[0] == "atom":
        return t[1]
    if t[0] in ("I", "J"):
        return t[0]
    if len(t) == 3:
        return "(%s %s %s)" % (type_text(t[1]), _OPS[t[0]], type_text(t[2]))
    return "(%s %s%d %s)" % (type_text(t[2]), _OPS[t[0]], t[1], type_text(t[3]))


def balance(t) -> Counter:
    """Polarity-weighted atom counts of a type (results +, arguments -)."""
    kind = t[0]
    if kind == "atom":
        return Counter({t[1]: 1})
    if kind in ("I", "J"):
        return Counter()
    left, right = t[-2], t[-1]
    bl, br = balance(left), balance(right)
    if kind in ("prod", "dprod"):
        bl.update(br)
        return bl
    if kind in ("under", "ddown"):  # the right operand is the result
        br.subtract(bl)
        return br
    bl.subtract(br)  # over, dup: the left operand is the result
    return bl


def balanced(antecedent_types, succedent) -> bool:
    """The count invariant; False certifies that the sequent is unprovable."""
    total = Counter()
    for t in antecedent_types:
        total.update(balance(t))
    total.subtract(balance(succedent))
    return all(v == 0 for v in total.values())


# ---------------------------------------------------------------------------
# structural terms: a plain tuple form, its text and the configuration it
# denotes
#
# ("II", 0) | ("JJ", 1) | ("leaf", sort, text) | ("cat", sort, left, right)
# | ("wrap", sort, i, left, right)

II = ("II", 0)
JJ = ("JJ", 1)


def leaf(text, sort):
    return ("leaf", sort, text)


def cat(left, right):
    return ("cat", left[1] + right[1], left, right)


def wrap(i, left, right):
    assert 1 <= i <= left[1]
    return ("wrap", left[1] + right[1] - 1, i, left, right)


def term_text(t) -> str:
    kind = t[0]
    if kind in ("II", "JJ"):
        return kind
    if kind == "leaf":
        return t[2]
    if kind == "cat":
        return "(%s + %s)" % (term_text(t[2]), term_text(t[3]))
    return "(%s +%d %s)" % (term_text(t[3]), t[2], term_text(t[4]))


def flat(t) -> list:
    """Flat tokens of the configuration a term denotes, as the program prints
    them: a sort-a leaf is its figure ``0:A,[],1:A,...,[],a:A``, ``+`` joins,
    and ``+i`` puts the right operand in place of the i-th separator."""
    kind = t[0]
    if kind == "II":
        return []
    if kind == "JJ":
        return ["[]"]
    if kind == "leaf":
        sort, text = t[1], t[2]
        if sort == 0:
            return [text]
        out = ["0:" + text]
        for g in range(1, sort + 1):
            out += ["[]", "%d:%s" % (g, text)]
        return out
    if kind == "cat":
        return flat(t[2]) + flat(t[3])
    i, left, right = t[2], flat(t[3]), flat(t[4])
    seps = [n for n, tok in enumerate(left) if tok == "[]"]
    pos = seps[i - 1]
    return left[:pos] + right + left[pos + 1 :]


def flat_text(tokens) -> str:
    return ",".join(tokens) if tokens else "Lambda"


def leaf_paths(t, prefix=()):
    if t[0] == "leaf":
        yield prefix
    elif t[0] in ("cat", "wrap"):
        yield from leaf_paths(t[-2], prefix + (0,))
        yield from leaf_paths(t[-1], prefix + (1,))


def _replace(t, path, new):
    if not path:
        return new
    kids = list(t[-2:])
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return cat(*kids) if t[0] == "cat" else wrap(t[2], *kids)


def _subterm(t, path):
    for d in path:
        t = t[-2 + d]
    return t


_MARK = "mark"


def extraction_index(t, path):
    """Separator index at which the leaf at `path` can be extracted, or None
    when its figure does not appear intact in the denoted configuration."""
    sort = _subterm(t, path)[1]
    toks = flat(_replace(t, path, leaf(_MARK, sort)))
    if sort == 0:
        first = toks.index(_MARK)
        want = [_MARK]
    else:
        first = toks.index("0:" + _MARK)
        want = flat(leaf(_MARK, sort))
    if toks[first : first + len(want)] != want:
        return None
    return toks[:first].count("[]") + 1


# ---------------------------------------------------------------------------
# rewrite workload: random terms of a fixed leaf count

REWRITE_ATOMS = {"a": 0, "e": 1, "b": 2, "f": 3}
# One term of each leaf count per round; depth <= 6 throughout.
REWRITE_LEAVES = tuple(range(2, 18))
# A term with n leaves has the first n of these, in random positions.  The
# cost of an op depends strongly on the sorts of its leaves, so fixing them
# per leaf count keeps the work of a round the same for every seed.
LEAF_PATTERN = ("a", "e", "b", "II", "f", "JJ", "a", "e", "b", "f",
                "II", "a", "JJ", "e", "b", "f", "a")


def random_term(rng, leaves, depth=6):
    """A random well-sorted term over the given leaves (in order)."""
    if len(leaves) == 1:
        name = leaves[0]
        if name in ("II", "JJ"):
            return II if name == "II" else JJ
        return leaf(name, REWRITE_ATOMS[name])
    cap = 2 ** (depth - 1)
    k = rng.randint(max(1, len(leaves) - cap), min(len(leaves) - 1, cap))
    left = random_term(rng, leaves[:k], depth - 1)
    right = random_term(rng, leaves[k:], depth - 1)
    if left[1] == 0 or rng.random() < 0.5:
        return cat(left, right)
    return wrap(rng.randint(1, left[1]), left, right)


def rewrite_op(rng, n):
    while True:
        leaves = list(LEAF_PATTERN[:n])
        rng.shuffle(leaves)
        t = random_term(rng, leaves)
        paths = list(leaf_paths(t))
        if not paths:
            continue
        start = rng.randrange(len(paths))
        for path in paths[start:] + paths[:start]:
            index = extraction_index(t, path)
            if index is not None:
                return {
                    "term": term_text(t),
                    "config": flat_text(flat(t)),
                    "at": list(path),
                    "index": index,
                    "size": n,
                }


def rewrite_inputs(seed, rounds):
    rng = random.Random("rewrite-%d" % seed)
    out = [[rewrite_op(rng, n) for n in REWRITE_LEAVES] for _ in range(rounds)]
    sig = "".join("%s %d\n" % a for a in REWRITE_ATOMS.items())
    return {"sig": sig, "rounds": out}


# ---------------------------------------------------------------------------
# the failing and provable families of the search workload; their types
# also make up the parse lexicon

def _quantifier(n, s):
    return ("ddown", 1, ("dup", 1, s, n), s)


def _tv(n, s):
    return ("over", ("under", n, s), n)


def _sv(n, s):
    return ("over", ("under", n, s), s)


def family_sequent(kind, k, n_name, s_name):
    """A member of the failing or the provable family, over renamed atoms."""
    n, s = ("atom", n_name), ("atom", s_name)
    q, tv = _quantifier(n, s), _tv(n, s)
    if kind == "failing":
        types = [q] + [tv, q] * k
    else:
        types = [n, _sv(n, s)] * k + [q, tv, q]
    provable = balanced(types, s)
    assert provable == (kind == "provable"), "family member breaks the count invariant"
    return ", ".join(type_text(t) for t in types) + " => " + s_name, len(types)


# ---------------------------------------------------------------------------
# parse workload: a generated lexicon and sentences over it

N, S = ("atom", "n"), ("atom", "s")
CATEGORIES = {
    "name": N,
    "quant": _quantifier(N, S),
    "iv": ("under", N, S),
    "tv": _tv(N, S),
    "sv": _sv(N, S),
}
# (number of words, categories of each word); the last three are ambiguous
LEXICON_SHAPE = (
    (3, ("name",)),
    (2, ("quant",)),
    (2, ("iv",)),
    (2, ("tv",)),
    (1, ("sv",)),
    (1, ("name", "iv")),
    (1, ("iv", "tv")),
    (1, ("tv", "sv")),
)
# A sentence of each length has one phrase structure: NP (SV NP)* (IV | TV NP).
# Parse cost depends mostly on length, on the number of quantifiers and on
# the number of ambiguous words, so each round has a fixed mix of these:
# (length, quantifiers, ambiguous words) per sentence with a reading ...
PARSE_READING = (
    (2, 0, 0), (2, 0, 0), (2, 1, 0), (2, 1, 0), (2, 0, 1), (2, 0, 1),
    (3, 0, 0), (3, 0, 0), (3, 1, 0), (3, 1, 0), (3, 0, 1), (3, 0, 1), (3, 2, 0),
    (4, 0, 0), (4, 1, 0), (4, 0, 1),
    (5, 0, 0), (5, 1, 0), (5, 0, 1),
    (6, 0, 1),
    # the costliest tenth of a round: the 90th percentile falls among these
    (6, 1, 0), (6, 1, 0), (6, 1, 0), (6, 1, 0),
    (7, 2, 0),
)
# ... and per sentence without one, made by replacing one word with an
# unambiguous word that is not a quantifier.
PARSE_NO_READING = ((3, 1, 0), (4, 0, 0), (4, 1, 0))


def make_lexicon(rng):
    words = {}
    letters = "bcdfghjklmnpqrstvwxz"
    for count, cats in LEXICON_SHAPE:
        for _ in range(count):
            while True:
                word = "".join(rng.choice(letters) for _ in range(2)) + rng.choice("aeiou")
                if word not in words:
                    break
            words[word] = cats
    return words


def lexicon_text(words) -> str:
    lines = ["%% signature", "n 0", "s 0", "", "%% lexicon"]
    for word, cats in words.items():
        for c in cats:
            lines.append("%s\t%s" % (word, type_text(CATEGORIES[c])))
    return "\n".join(lines) + "\n"


def sentence_slots(length):
    vp = ["iv"] if length % 2 == 0 else ["tv", "np"]
    return ["np", "sv"] * ((length - len(vp) - 1) // 2) + ["np"] + vp


def make_sentence(rng, words, length, quantifiers, ambiguous):
    """Words for the phrase structure of `length`.  The quantifiers take the
    first noun-phrase slots and the ambiguous words the last other slots, so
    that sentences of one class differ only in their words."""
    slots = sentence_slots(length)
    nps = [i for i, c in enumerate(slots) if c == "np"]
    quant_at = set(nps[:quantifiers])
    cats = ["quant" if i in quant_at else "name" if c == "np" else c for i, c in enumerate(slots)]
    free = [i for i, c in enumerate(cats) if c != "quant"]
    amb_at = set(free[len(free) - ambiguous:])
    sentence = []
    for i, c in enumerate(cats):
        pool = sorted(w for w, cs in words.items() if c in cs and (len(cs) > 1) == (i in amb_at))
        sentence.append(rng.choice(pool))
    return sentence


def has_no_reading(words, sentence) -> bool:
    """True when no lexical assignment balances against s (certified)."""
    totals = {()}
    for word in sentence:
        options = []
        for c in words[word]:
            b = balance(CATEGORIES[c])
            options.append(tuple(sorted((k, v) for k, v in b.items() if v)))
        totals = {_add(t, o) for t in totals for o in options}
    goal = (("s", 1),)
    return goal not in totals


def _add(a, b):
    c = Counter(dict(a))
    c.update(dict(b))
    return tuple(sorted((k, v) for k, v in c.items() if v))


def parse_inputs(seed, rounds):
    rng = random.Random("parse-%d" % seed)
    words = make_lexicon(rng)
    out = []
    for _ in range(rounds):
        ops = []
        for length, quantifiers, ambiguous in PARSE_READING:
            sentence = make_sentence(rng, words, length, quantifiers, ambiguous)
            assert not has_no_reading(words, sentence)
            ops.append({"sentence": " ".join(sentence), "reading": True, "size": length})
        plain = sorted(w for w, cats in words.items() if len(cats) == 1 and cats != ("quant",))
        for length, quantifiers, ambiguous in PARSE_NO_READING:
            while True:
                sentence = make_sentence(rng, words, length, quantifiers, ambiguous)
                sentence[rng.randrange(length)] = rng.choice(plain)
                if has_no_reading(words, sentence):
                    break
            ops.append({"sentence": " ".join(sentence), "reading": False, "size": length})
        rng.shuffle(ops)
        out.append(ops)
    return {"lexicon": lexicon_text(words), "rounds": out}
