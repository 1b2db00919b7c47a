"""The four workloads' ops, as the worker runs them.

``prepare`` parses a workload's text inputs with the program's own parsers
(this is set-up time).  ``run`` performs one op and checks it against the
input's known answer; checking is part of the op.  It returns (ok, detail),
and ``digest`` reduces the detail to the text that is compared with the
digests recorded at the seed commit (verdicts, reading counts and rewrite
traces).  Every call into a layer goes through ``layers``, so the traced run
records a span around it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from types import SimpleNamespace

from dcalc import bridge, cli, hseq, mseq, syntax, terms
from dcalc.syntax import Signature
from dcalc.terms import WrapT, subterm_at

# Names that cli and bridge import from other modules; wrapped in the
# traced run only.
TRACED_IMPORTS = {
    cli: ("prove_all", "derivation_to_obj", "parse_type"),
    bridge: (
        "normalize",
        "extract",
        "invert_trace",
        "enumerate_rule_instances",
        "structural_step",
        "sharp",
        "flatten",
        "term_of_config",
        "term_of_config_with_addr",
    ),
}

_LAYER_FUNCTIONS = (
    syntax.flatten,
    terms.sharp,
    terms.apply_rule,
    terms.enumerate_rule_apps,
    terms.normalize,
    terms.term_of_config,
    terms.extract,
    hseq.prove,
    hseq.check,
    hseq.derivation_from_obj,
    mseq.check_m,
    bridge.lift,
    bridge.lower,
    cli.main,
)


def bind_layers(recorder):
    """Namespace of the layer functions the ops call, wrapped by recorder."""
    return SimpleNamespace(**{f.__name__: recorder.wrap(f) for f in _LAYER_FUNCTIONS})


def _hash(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _replays(L, trace) -> bool:
    cur = trace.start
    for step in trace.steps:
        cur = L.apply_rule(cur, step.app)
        if cur != step.result:
            return False
    return True


# ---------------------------------------------------------------------------
# rewrite: every one-step rewrite keeps the image; normalize and extract
# traces replay


class Rewrite:
    def prepare(self, inputs, workdir):
        sig = Signature.from_text(inputs["sig"])
        return [
            [
                SimpleNamespace(
                    term=terms.parse_term(op["term"], sig),
                    config=op["config"],
                    at=tuple(op["at"]),
                    index=op["index"],
                )
                for op in ops
            ]
            for ops in inputs["rounds"]
        ]

    def run(self, op, L, rec):
        t = op.term
        cfg = L.sharp(t)
        image = L.flatten(cfg)
        ok = (",".join(map(str, image)) or "Lambda") == op.config
        apps = L.enumerate_rule_apps(t)
        rec.count("terms.enumerate_rule_apps.apps", len(apps))
        for app in apps:
            if L.flatten(L.sharp(L.apply_rule(t, app))) != image:
                ok = False
        norm = L.normalize(t)
        rec.count("terms.normalize.steps", len(norm))
        ok = ok and _replays(L, norm) and norm.end() == L.term_of_config(cfg)
        rest, index, trace = L.extract(t, op.at)
        rec.count("terms.extract.steps", len(trace))
        ok = (
            ok
            and index == op.index
            and _replays(L, trace)
            and trace.end() == WrapT(index, rest, subterm_at(t, op.at))
        )
        return ok, (len(apps), norm, index, rest, trace)

    def digest(self, detail):
        n_apps, norm, index, rest, trace = detail
        return _hash(
            n_apps,
            [str(s.app) for s in norm.steps],
            index,
            str(rest),
            [str(s.app) for s in trace.steps],
        )


# ---------------------------------------------------------------------------
# search: one prove call, its verdict and its derivation checked


class Search:
    def prepare(self, inputs, workdir):
        sig = Signature.from_text(inputs["sig"])
        return [
            [
                SimpleNamespace(sequent=hseq.parse_hsequent(op["sequent"], sig),
                                provable=op["provable"])
                for op in ops
            ]
            for ops in inputs["rounds"]
        ]

    def run(self, op, L, rec):
        d = L.prove(op.sequent)
        if d is None:
            rec.count("hseq.prove.unprovable_s", rec.last_duration())
            return not op.provable, False
        rec.count("hseq.prove.nodes", _size(d))
        return op.provable and L.check(d) and d.conclusion == op.sequent, True

    def digest(self, detail):
        return "provable" if detail else "unprovable"


def _size(d):
    return 1 + sum(_size(p) for p in d.premises)


# ---------------------------------------------------------------------------
# parse: one in-process `dcalc parse` with JSON output; every reading is
# re-checked and must be an assignment of the sentence's words


class Parse:
    def prepare(self, inputs, workdir):
        self.lexicon = os.path.join(workdir, "lexicon-%d.lex" % os.getpid())
        with open(self.lexicon, "w", encoding="utf-8") as handle:
            handle.write(inputs["lexicon"])
        self.sig, entries = cli.load_lexicon(self.lexicon)
        self.goal = syntax.parse_type("s", self.sig)
        return [
            [
                SimpleNamespace(
                    argv=["parse", self.lexicon, op["sentence"], "s", "--out", "json"],
                    words=[entries[w] for w in op["sentence"].split()],
                    reading=op["reading"],
                )
                for op in ops
            ]
            for ops in inputs["rounds"]
        ]

    def close(self):
        with contextlib.suppress(OSError):
            os.remove(self.lexicon)

    def run(self, op, L, rec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = L.main(op.argv)
        text = out.getvalue()
        rec.count("cli.output_bytes", len(text.encode()))
        obj = json.loads(text)
        readings = obj["readings"]
        rec.count("hseq.prove_all.derivations", readings)
        ok = (
            code == (0 if op.reading else 1)
            and (readings > 0) == op.reading
            and readings == len(obj["derivations"])
            and not err.getvalue()
        )
        for dobj in obj["derivations"]:
            d = L.derivation_from_obj(dobj, self.sig)
            items = d.conclusion.antecedent.items
            ok = (
                ok
                and L.check(d)
                and d.conclusion.succedent == self.goal
                and len(items) == len(op.words)
                and all(item.type in types for item, types in zip(items, op.words))
            )
        return ok, (code, readings)

    def digest(self, detail):
        return "%d:%d" % detail


# ---------------------------------------------------------------------------
# roundtrip: JSON -> derivation -> lift (canonical and onto a target term)
# -> check_m -> lower -> check, ending at the same end-sequent


class Roundtrip:
    def prepare(self, inputs, workdir):
        self.sig = Signature.from_text(inputs["sig"])
        return [
            [
                SimpleNamespace(
                    obj=json.loads(op["derivation"]),
                    target=terms.parse_term(op["target"], self.sig),
                    sequent=op["sequent"],
                )
                for op in ops
            ]
            for ops in inputs["rounds"]
        ]

    def run(self, op, L, rec):
        d = L.derivation_from_obj(op.obj, self.sig)
        md = L.lift(d)
        onto = L.lift(d, target=op.target)
        back = L.lower(onto)
        ok = (
            L.check_m(md)
            and L.check_m(onto)
            and onto.conclusion.antecedent == op.target
            and L.check(back)
            and str(back.conclusion) == op.sequent
            and str(d.conclusion) == op.sequent
        )
        return ok, (onto, back)

    def digest(self, detail):
        onto, back = detail
        return _hash(mseq.m_derivation_to_obj(onto), hseq.derivation_to_obj(back))


WORKLOADS = {"rewrite": Rewrite, "search": Search, "parse": Parse, "roundtrip": Roundtrip}
