"""Command-line front end.

One command per process: prove / check / sharp / termof / equiv / extract /
normalize / parse.  Exit codes: 0 for provable, valid or true; 1 for the
negative outcome; 2 for malformed input, input nested too deeply or running
out of memory, or a reader that closed stdout early (``error: output
closed``); 3 when an extraction precondition fails.  JSON output is
deterministic (sorted keys, two-space indent) and written by
``derivation.json_text``, which keeps its own stack.  Derivations go to it as
nodes, not dicts: it writes each node's fields directly and repeats the text
of a shared subtree met again at the same indent.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from .derivation import (
    derivation_latex,
    derivation_text,
    derivation_to_obj,  # noqa: F401 (the benchmark's traced run wraps cli.derivation_to_obj)
    first_violation,
    json_text,
    latex_escape,
    violation_reason,
)
from .hseq import (
    HSequent,
    check_node,
    derivation_from_obj,
    parse_hsequent,
    prove,
    prove_all,  # noqa: F401 (the benchmark's traced run wraps cli.prove_all)
    prove_each,
)
from .bridge import prove_m
from .mseq import check_m_node, m_derivation_from_obj, parse_msequent
from .syntax import (
    HyperConfig,
    ParseError,
    Signature,
    SortError,
    config_str,
    figure,
    parse_config,
    parse_type,
)
from .terms import (
    BudgetError,
    ExtractionError,
    equiv,
    extract,
    normalize,
    parse_term,
    sharp,
    term_of_config,
    trace_to_obj,
)


class _OpenSignature(Signature):
    """Signature used when no --sig file is given: unknown atoms get sort 0."""

    def sort(self, name: str) -> int:
        return self.atoms.get(name, 0)


def _load_sig(args) -> Signature:
    if args.sig:
        return Signature.from_file(args.sig)
    return _OpenSignature()


def _emit_json(obj) -> None:
    print(json_text(obj))


def _emit_scalar(args, key: str, value) -> None:
    if args.out == "json":
        _emit_json({key: value})
    elif args.out == "latex":
        print("\\texttt{%s}" % latex_escape(str(value)))
    else:
        print(value)


def _parse_path(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    steps = [part.strip() for part in text.split(",")]
    if not set(steps) <= {"0", "1"}:
        raise ParseError("bad path %r; expected comma-separated 0s and 1s" % text)
    return tuple(int(step) for step in steps)


def trace_text(trace) -> str:
    lines = ["start %s" % trace.start]
    for step in trace.steps:
        lines.append("=> [%s] %s" % (step.app, step.result))
    return "\n".join(lines)


def _emit_trace(args, trace) -> None:
    if args.out == "json":
        _emit_json(trace_to_obj(trace))
    elif args.out == "latex":
        body = "\\\\\n".join(latex_escape(line) for line in trace_text(trace).splitlines())
        print("\\begin{tabular}{l}\n%s\n\\end{tabular}" % body)
    else:
        print(trace_text(trace))


# ---------------------------------------------------------------------------
# commands


def cmd_prove(args) -> int:
    sig = _load_sig(args)
    if args.calculus == "hd":
        d = prove(parse_hsequent(args.sequent, sig))
    else:
        d = prove_m(parse_msequent(args.sequent, sig))
    if d is None:
        print("unprovable: %s" % args.sequent, file=sys.stderr)
        return 1
    if args.out == "json":
        _emit_json(d)
    elif args.out == "latex":
        print(derivation_latex(d))
    else:
        print(derivation_text(d))
    return 0


def cmd_check(args) -> int:
    sig = _load_sig(args)
    with open(args.file, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if args.calculus == "hd":
        d, node_ok = derivation_from_obj(obj, sig), check_node
    else:
        d, node_ok = m_derivation_from_obj(obj, sig), check_m_node
    bad = first_violation(d, node_ok)
    if bad is None:
        _emit_scalar(args, "valid", "ok")
        return 0
    reason = violation_reason(bad, node_ok)
    print("violation at [%s] %s: %s" % (bad.rule, bad.conclusion, reason), file=sys.stderr)
    return 1


def cmd_sharp(args) -> int:
    sig = _load_sig(args)
    t = parse_term(args.term, sig)
    _emit_scalar(args, "config", config_str(sharp(t)))
    return 0


def cmd_termof(args) -> int:
    sig = _load_sig(args)
    cfg = parse_config(args.config, sig)
    _emit_scalar(args, "term", str(term_of_config(cfg)))
    return 0


def cmd_equiv(args) -> int:
    sig = _load_sig(args)
    t1 = parse_term(args.term1, sig)
    t2 = parse_term(args.term2, sig)
    same = equiv(t1, t2)
    if args.out == "json":
        _emit_json({"equiv": same})
    else:
        _emit_scalar(args, "equiv", "true" if same else "false")
    return 0 if same else 1


def cmd_extract(args) -> int:
    sig = _load_sig(args)
    t = parse_term(args.term, sig)
    at = _parse_path(args.at)
    rng = random.Random(args.seed) if args.seed is not None else None
    rest, index, trace = extract(t, at, rng)
    if args.out == "json":
        _emit_json(
            {"index": index, "rest": str(rest), "trace": trace_to_obj(trace)}
        )
    else:
        print("index %d" % index)
        print("rest %s" % rest)
        _emit_trace(args, trace)
    return 0


def cmd_normalize(args) -> int:
    sig = _load_sig(args)
    t = parse_term(args.term, sig)
    trace = normalize(t, budget=args.budget)
    _emit_trace(args, trace)
    return 0


def load_lexicon(path: str):
    """Read a lexicon file: a %% signature section and a %% lexicon section.
    Each distinct type text is parsed once, and equal types are one object."""
    sig_lines = []
    entry_lines = []
    section = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("%%"):
                name = line[2:].strip().lower()
                if name not in ("signature", "lexicon"):
                    raise ParseError("line %d: unknown section %r" % (lineno, name))
                section = name
                continue
            if section == "signature":  # padded, so from_text numbers the file's lines
                sig_lines += [""] * (lineno - 1 - len(sig_lines)) + [line]
            elif section == "lexicon":
                entry_lines.append((lineno, line))
            else:
                raise ParseError("line %d: text before any %%%% section" % lineno)
    sig = Signature.from_text("\n".join(sig_lines))
    entries = {}
    types = {}  # each type text parsed, and each type by value, once
    for lineno, line in entry_lines:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError("line %d: expected 'word<TAB>type'" % lineno)
        word, type_text = parts
        t = types.get(type_text)
        if t is None:
            try:
                t = parse_type(type_text, sig)
            except (ParseError, SortError) as exc:
                raise type(exc)("line %d: %s" % (lineno, exc)) from None
            t = types[type_text] = types.setdefault(t, t)
        entries.setdefault(word, []).append(t)
    return sig, entries


def cmd_parse(args) -> int:
    sig, entries = load_lexicon(args.lexicon)
    goal = parse_type(args.type, sig)
    words = args.sentence.split()
    for word in words:
        if word not in entries:
            raise ParseError("word %r not in lexicon" % word)
    if args.config is not None:
        antecedents = [parse_config(args.config, sig)]
    else:
        # one antecedent per lexical assignment, each built when its turn comes
        antecedents = (
            HyperConfig(tuple(itertools.chain.from_iterable(figure(t).items for t in assignment)))
            for assignment in itertools.product(*(entries[w] for w in words))
        )
    found = prove_each((HSequent(ant, goal) for ant in antecedents), limit=args.limit)
    derivations = list(itertools.chain.from_iterable(found))
    if args.out == "json":
        _emit_json({"readings": len(derivations), "derivations": derivations})
    else:
        print("%d reading(s)" % len(derivations))
        for d in derivations:
            if args.out == "latex":
                print(derivation_latex(d))
            else:
                print(derivation_text(d))
    return 0 if derivations else 1


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sig", metavar="FILE", help="signature file: 'name sort' lines")
    common.add_argument(
        "--out", choices=("text", "json", "latex"), default="text", help="output format"
    )

    ap = argparse.ArgumentParser(
        prog="dcalc",
        description="workbench for a sorted discontinuous type calculus",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", parents=[common], help="search for a derivation")
    p.add_argument("calculus", choices=("hd", "md"))
    p.add_argument("sequent", help="'config => type' for hd, 'term -> type' for md")

    p = sub.add_parser("check", parents=[common], help="validate a derivation file")
    p.add_argument("calculus", choices=("hd", "md"))
    p.add_argument("file", help="derivation in the JSON schema emitted by prove")

    p = sub.add_parser("sharp", parents=[common], help="configuration denoted by a term")
    p.add_argument("term")

    p = sub.add_parser("termof", parents=[common], help="canonical term of a configuration")
    p.add_argument("config")

    p = sub.add_parser("equiv", parents=[common], help="do two terms denote the same configuration")
    p.add_argument("term1")
    p.add_argument("term2")

    p = sub.add_parser("extract", parents=[common], help="pull a leaf to the top as a wrap")
    p.add_argument("term")
    p.add_argument("--at", default="", help="leaf path, e.g. 0,1 (0 = left, 1 = right)")
    p.add_argument("--seed", type=int, default=None, help="randomize the rewrite route")

    p = sub.add_parser("normalize", parents=[common], help="rewrite a term to canonical form")
    p.add_argument("term")
    p.add_argument("--budget", type=int, default=10000, help="max rewrite steps")

    p = sub.add_parser("parse", parents=[common], help="parse a sentence with a lexicon")
    p.add_argument("lexicon", help="file with %%%% signature and %%%% lexicon sections")
    p.add_argument("sentence", help="whitespace-separated words; may be empty")
    p.add_argument("type", help="target type")
    p.add_argument("--limit", type=int, default=16, help="max readings per subgoal; the lexical assignments share one search memo")
    p.add_argument(
        "--config",
        default=None,
        help="explicit antecedent configuration (overrides figure concatenation)",
    )
    return ap


# built once, at import: parse_args returns a fresh namespace on every call,
# and main looks each command up by name when it runs, so a cmd_* function
# replaced after import still takes effect
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader went away; devnull takes what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed", file=sys.stderr)
        return 2
    except ExtractionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ParseError, SortError, BudgetError, OSError, KeyError, TypeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
