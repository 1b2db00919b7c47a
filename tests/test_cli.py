"""Command line entry points, exit codes, and output formats."""

import json
import os
import subprocess
import sys

import pytest
from dcalc import cli
from dcalc.cli import main
from dcalc.hseq import derivation_to_obj, parse_hsequent, prove

import golden_defs
from helpers import parent_parse_json

SIG_TEXT = "a 0\nb 2\nc 0\nd 2\ne 1\nn 0\ns 0\n"
TOY_LEX = os.path.join(golden_defs.GOLDEN_DIR, "toy.lex")


@pytest.fixture
def sig_file(tmp_path):
    path = tmp_path / "types.sig"
    path.write_text(SIG_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# term and configuration commands


def test_sharp(capsys, sig_file):
    code, out, _ = run(capsys, "sharp", "(II + a)", "--sig", sig_file)
    assert code == 0 and out == "a\n"
    code, out, _ = run(capsys, "sharp", "(e +1 c)", "--sig", sig_file)
    assert code == 0 and out == "0:e,c,1:e\n"


def test_sharp_on_a_deeply_nested_term_exits_2(capsys, sig_file):
    term = "(" * 2000 + "a" + " + a)" * 2000
    code, out, err = run(capsys, "sharp", term, "--sig", sig_file)
    assert code == 2 and out == "" and err == "error: input nested too deeply\n"


def test_sharp_without_signature_defaults_to_sort_zero(capsys):
    code, out, _ = run(capsys, "sharp", "(II + x)")
    assert code == 0 and out == "x\n"


def test_termof(capsys, sig_file):
    code, out, _ = run(capsys, "termof", "Lambda", "--sig", sig_file)
    assert code == 0 and out == "II\n"
    code, out, _ = run(capsys, "termof", "0:e,[],1:e", "--sig", sig_file)
    assert code == 0 and out == "((e +1 (JJ + II)) + II)\n"


def test_equiv_exit_codes(capsys, sig_file):
    code, out, _ = run(capsys, "equiv", "(II + a)", "a", "--sig", sig_file)
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "equiv", "a", "c", "--sig", sig_file)
    assert code == 1 and out == "false\n"
    code, out, _ = run(capsys, "equiv", "(II + a)", "a", "--sig", sig_file, "--out", "json")
    assert code == 0
    assert json.loads(out) == {"equiv": True}


def test_parse_errors_exit_2(capsys, sig_file):
    code, _, err = run(capsys, "sharp", "(a +", "--sig", sig_file)
    assert code == 2 and err
    code, _, err = run(capsys, "sharp", "(a +1 c)", "--sig", sig_file)
    assert code == 2 and err
    code, _, err = run(capsys, "termof", "0:e,c", "--sig", sig_file)
    assert code == 2 and err
    code, _, err = run(capsys, "prove", "hd", "a =>", "--sig", sig_file)
    assert code == 2 and err


def test_braced_occurrence_exits_2(capsys, sig_file):
    # occurrences are written in segments, 0:e,a,1:e
    code, out, err = run(capsys, "termof", "{e: a}", "--sig", sig_file)
    assert code == 2 and out == "" and err.startswith("error: ")


# ---------------------------------------------------------------------------
# proving


def test_prove_hd_text(capsys, sig_file):
    code, out, _ = run(capsys, "prove", "hd", "n, (n \\ s) => s", "--sig", sig_file)
    assert code == 0
    assert "UnderL" in out and "Id" in out


def test_prove_hd_unprovable(capsys, sig_file):
    code, out, err = run(capsys, "prove", "hd", "a => c", "--sig", sig_file)
    assert code == 1 and out == "" and "unprovable" in err


def test_prove_hd_json_is_byte_stable(capsys, sig_file):
    code, out, _ = run(
        capsys, "prove", "hd", "n, (n \\ s) => s", "--sig", sig_file, "--out", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert obj["rule"] and obj["sequent"] and isinstance(obj["premises"], list)


def test_prove_md(capsys, sig_file):
    code, out, _ = run(
        capsys, "prove", "md", "((II + n) + (n \\ s)) -> s", "--sig", sig_file
    )
    assert code == 0
    assert "Structural" in out
    code, _, err = run(capsys, "prove", "md", "a -> c", "--sig", sig_file)
    assert code == 1 and "unprovable" in err


def test_prove_latex_smoke(capsys, sig_file):
    code, out, _ = run(
        capsys, "prove", "hd", "a => a", "--sig", sig_file, "--out", "latex"
    )
    assert code == 0
    assert "\\infer" in out or "\\frac" in out


# ---------------------------------------------------------------------------
# checking derivation files


def test_check_valid_and_corrupted(capsys, sig_file, tmp_path):
    sig = golden_defs.SIG
    d = prove(parse_hsequent("n, (n \\ s) => s", parse_sig(sig_file)))
    obj = derivation_to_obj(d)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(obj, indent=2, sort_keys=True))
    code, out, _ = run(capsys, "check", "hd", str(good), "--sig", sig_file)
    assert code == 0 and out == "ok\n"

    obj_bad = json.loads(good.read_text())
    obj_bad["premises"][1]["sequent"] = "s => n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj_bad))
    code, out, err = run(capsys, "check", "hd", str(bad), "--sig", sig_file)
    assert code == 1 and out == ""
    assert err == "violation at [Id] s => n: the antecedent does not fit the axiom\n"


def test_check_rejects_a_negative_address(capsys, sig_file, tmp_path):
    # an IL node at (-1, 0, 0) whose premise repeats the occurrence: the
    # premise has a proof, the conclusion has none
    code, out, _ = run(capsys, "prove", "hd", "0:e,1:e,0:e,I,1:e => (e@1I).(e@1I)",
                       "--sig", sig_file, "--out", "json")
    assert code == 0
    node = {"rule": "IL", "sequent": "0:e,I,1:e => (e@1I).(e@1I)", "params": {"at": [-1, 0, 0]},
            "premises": [json.loads(out)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(node))
    code, out, err = run(capsys, "check", "hd", str(path), "--sig", sig_file)
    assert code == 1 and out == ""
    assert err == "violation at [IL] 0:e,I,1:e => (e@1I).(e@1I): bad level address (-1, 0)\n"


def test_check_names_a_missing_or_ill_typed_parameter(capsys, sig_file, tmp_path):
    # the reasons were the bare KeyError text 'at' and the TypeError text
    # of str + int
    obj = derivation_to_obj(prove(parse_hsequent("n, (n \\ s) => s", parse_sig(sig_file))))
    assert (obj["rule"], obj["params"]) == ("UnderL", {"at": [1], "chunks": [], "mstart": 0})
    path = tmp_path / "node.json"
    for params, reason in (
        ({}, "missing rule parameter 'at'"),
        ({"at": [1], "chunks": []}, "missing rule parameter 'mstart'"),
        ({"at": "x", "chunks": [], "mstart": 0}, "rule parameter 'at' is not a list of integers"),
        ({"at": [1], "chunks": [["x", 0, 0]], "mstart": 0},
         "rule parameter 'chunks' is not a list of lists [level, start, end]"),
        ({"at": [1], "chunks": [], "mstart": 0, "split": 9}, "UnderL takes no parameter 'split'"),
    ):
        path.write_text(json.dumps(dict(obj, params=params)))
        code, out, err = run(capsys, "check", "hd", str(path), "--sig", sig_file)
        assert (code, out, err) == (1, "", "violation at [UnderL] n,n\\s => s: %s\n" % reason)
    # Cut in both calculi, and an md logical rule; an md Structural step's
    # rule name stays a string (the golden md derivation checks)
    a, a_obj = parse_hsequent("a => a", parse_sig(sig_file)), {"rule": "Id", "params": {}, "premises": []}
    cut = {"rule": "Cut", "sequent": str(a), "params": {}, "premises": [dict(a_obj, sequent=str(a))] * 2}
    m_id = dict(a_obj, sequent="a -> a")
    m_cut = dict(cut, sequent="a -> a", premises=[m_id, m_id])
    m_under = {"rule": "UnderL", "sequent": "(a + (a \\ a)) -> a", "params": {"at": "0"},
               "premises": [m_id, m_id]}
    # a parameter the rule does not take was ignored, and check printed ok:
    # on Cut, and on the Structural root and the UnderL node of an md proof
    code, out, _ = run(capsys, "prove", "md", "(n + (n \\ s)) -> s", "--sig", sig_file, "--out", "json")
    m_step, m_proof = json.loads(out), json.loads(out)
    assert code == 0 and m_step["rule"] == "Structural"
    m_step["params"]["k"] = 4
    under = m_proof
    while under["rule"] != "UnderL":
        under = under["premises"][0]
    under["params"]["mstart"] = 0
    for calculus, node, reason in (
        ("hd", cut, "missing rule parameter 'at'"),
        ("md", m_cut, "missing rule parameter 'at'"),
        ("md", m_under, "rule parameter 'at' is not a list of integers"),
        ("hd", dict(cut, params={"at": [0], "k": 1}), "Cut takes no parameter 'k'"),
        ("md", dict(m_cut, params={"at": [], "split": 0}), "Cut takes no parameter 'split'"),
        ("md", m_step, "Structural takes no parameter 'k'"),
        ("md", m_proof, "UnderL takes no parameter 'mstart'"),
    ):
        path.write_text(json.dumps(node))
        code, out, err = run(capsys, "check", calculus, str(path), "--sig", sig_file)
        assert (code, out) == (1, "") and err.endswith(": %s\n" % reason), err


def test_check_names_a_parameter_of_the_wrong_shape(capsys, sig_file, tmp_path):
    # integers in the wrong places reached list arithmetic, and the reasons
    # were internal TypeError texts such as 'int' object is not iterable
    obj = derivation_to_obj(prove(parse_hsequent("n, (n \\ s) => s", parse_sig(sig_file))))
    step = {"rule": "Structural", "sequent": "(a + II) -> a",
            "params": {"at": 1, "indices": {}, "srule": "UnitI-R-add"},
            "premises": [{"rule": "Id", "sequent": "a -> a", "params": {}, "premises": []}]}
    path = tmp_path / "node.json"
    for calculus, node, reason in (
        ("hd", dict(obj, params=dict(obj["params"], at=1)), "rule parameter 'at' is not a list of integers"),
        ("hd", dict(obj, params=dict(obj["params"], at=[[1]])), "rule parameter 'at' is not a list of integers"),
        ("hd", dict(obj, params=dict(obj["params"], chunks=[1])),
         "rule parameter 'chunks' is not a list of lists [level, start, end]"),
        ("hd", dict(obj, params=dict(obj["params"], mstart=[0])), "rule parameter 'mstart' is not an integer"),
        ("md", step, "rule parameter 'at' is not a list of integers"),
    ):
        path.write_text(json.dumps(node))
        code, out, err = run(capsys, "check", calculus, str(path), "--sig", sig_file)
        assert (code, out) == (1, "") and err.endswith(": %s\n" % reason), err


def test_check_md_names_an_index_its_step_does_not_take(capsys, sig_file, tmp_path):
    # an AsscC-bwd step fills no index: i and zz were ignored, and check
    # printed ok
    code, out, _ = run(capsys, "prove", "md", "((a + a) + a) -> ((a . a) . a)",
                       "--sig", sig_file, "--out", "json")
    assert code == 0
    obj = json.loads(out)
    path = tmp_path / "md.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "check", "md", str(path), "--sig", sig_file) == (0, "ok\n", "")
    node = obj
    while node["params"].get("srule") != "AsscC-bwd":
        node = node["premises"][0]
    assert node["params"]["indices"] == {}
    node["params"]["indices"] = {"i": 9, "zz": 3}
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", "md", str(path), "--sig", sig_file)
    assert (code, out) == (1, "")
    assert err == (
        "violation at [Structural] %s: AsscC-bwd at (): the step takes no parameter i\n"
        % node["sequent"]
    )


def test_check_malformed_files_exit_2(capsys, sig_file, tmp_path):
    id_a = {"rule": "Id", "sequent": "a -> a", "params": {}, "premises": []}
    cases = (
        ("hd", {"rule": "Id", "sequent": "a => a", "params": [], "premises": []}),
        ("hd", {"rule": "Id", "sequent": "a => a", "params": {}, "premises": {}}),
        ("hd", [{"rule": "Id", "sequent": "a => a"}]),
        ("hd", {"rule": ["Id"], "sequent": "a => a"}),
        ("hd", {"rule": "Id", "sequent": 5}),
        ("md", {"rule": "Id", "sequent": "a -> a", "params": [], "premises": []}),
        ("md", {"rule": "Id", "sequent": "a -> a", "params": {}, "premises": 5}),
        ("md", {
            "rule": "Structural",
            "sequent": "(a + II) -> a",
            "params": {"at": [], "indices": [], "srule": "UnitI-R-add"},
            "premises": [id_a],
        }),
    ) + tuple(
        # JSON booleans, floats and strings are not indices, although True == 1 == 1.0
        ("md", {
            "rule": "Structural",
            "sequent": "(b +1 JJ) -> b",
            "params": {"at": [], "indices": {"i": index}, "srule": "UnitJ-i-add"},
            "premises": [{"rule": "Id", "sequent": "b -> b", "params": {}, "premises": []}],
        })
        for index in (True, 1.0, "1")
    )
    path = tmp_path / "malformed.json"
    for calculus, obj in cases:
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", calculus, str(path), "--sig", sig_file)
        assert code == 2 and out == "" and err.startswith("error: "), obj


def test_check_names_a_missing_node_field(capsys, sig_file, tmp_path):
    # these printed the bare KeyError text, error: 'sequent' and error: 'rule'
    path = tmp_path / "node.json"
    for calculus, sequent in (("hd", "a => a"), ("md", "a -> a")):
        for name in ("sequent", "rule"):
            node = {"rule": "Id", "sequent": sequent, "params": {}, "premises": []}
            del node[name]
            path.write_text(json.dumps(node))
            code, out, err = run(capsys, "check", calculus, str(path), "--sig", sig_file)
            assert (code, out, err) == (2, "", "error: %s must be a JSON string\n" % name), calculus


def test_check_deep_structural_chain_exits_2(capsys, sig_file, tmp_path):
    # 2,400 Structural steps nest the JSON deeper than the recursion limit
    node = '{"rule": "Structural", "sequent": "%s", "params": {"at": [], "indices": {}, "srule": "%s"}, "premises": ['
    steps = (node % ("(II + a) -> a", "UnitI-L-add"), node % ("a -> a", "UnitI-L-drop")) * 1200
    leaf = '{"rule": "Id", "sequent": "a -> a", "params": {}, "premises": []}'
    path = tmp_path / "chain.json"
    path.write_text("".join(reversed(steps)) + leaf + "]}" * len(steps))
    code, out, err = run(capsys, "check", "md", str(path), "--sig", sig_file)
    assert code == 2 and out == "" and err == "error: input nested too deeply\n"


def test_out_of_memory_exits_2(capsys, sig_file, monkeypatch):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_sharp", exhausted)
    code, out, err = run(capsys, "sharp", "(II + a)", "--sig", sig_file)
    assert code == 2 and out == "" and err == "error: out of memory\n"


def parse_sig(path):
    from dcalc.syntax import Signature

    return Signature.from_file(path)


def test_check_golden_md(capsys, tmp_path):
    sig = tmp_path / "worked.sig"
    sig.write_text(golden_defs.SIG_TEXT)
    mm = os.path.join(golden_defs.GOLDEN_DIR, "mmder.json")
    code, out, _ = run(capsys, "check", "md", mm, "--sig", str(sig))
    assert code == 0 and out == "ok\n"


def test_check_missing_file(capsys, sig_file):
    code, _, err = run(capsys, "check", "hd", "/nonexistent.json", "--sig", sig_file)
    assert code == 2 and err


# ---------------------------------------------------------------------------
# rewriting commands


def test_normalize(capsys, sig_file):
    code, out, _ = run(capsys, "normalize", "((JJ + a) +1 c)", "--sig", sig_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("start ")
    assert all(l.startswith("=> [") for l in lines[1:])
    code, _, err = run(
        capsys, "normalize", "((a + c) + (a + c))", "--sig", sig_file, "--budget", "1"
    )
    assert code == 2 and err
    # a budget below 0 gave the empty trace of a term one step from canonical,
    # and a budget error for a canonical term
    for term in ("(a + II)", "a"):
        code, out, err = run(capsys, "normalize", term, "--sig", sig_file, "--budget", "-1")
        assert (code, out, err) == (2, "", "error: budget must be at least 0, not -1\n")


def test_extract(capsys, sig_file):
    code, out, _ = run(
        capsys, "extract", "(a + (e +1 c))", "--at", "1,1", "--sig", sig_file
    )
    assert code == 0
    assert out.splitlines()[0] == "index 1"
    assert out.splitlines()[1].startswith("rest ")


def test_extract_not_visible_exits_3(capsys, sig_file):
    code, _, err = run(
        capsys, "extract", "(a + (e +1 c))", "--at", "1,0", "--sig", sig_file
    )
    assert code == 3 and err


def test_extract_json(capsys, sig_file):
    code, out, _ = run(
        capsys, "extract", "(a + (e +1 c))", "--at", "1,1", "--sig", sig_file,
        "--out", "json", "--seed", "5",
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"index", "rest", "trace"}
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_extract_path_below_a_leaf_exits_3(capsys):
    for term, at in (("a", "0"), ("(a + (b + c))", "0,1")):
        code, out, err = run(capsys, "extract", term, "--at", at)
        assert code == 3 and not out
        assert "does not address a type leaf" in err


def test_extract_path_steps_are_0_or_1(capsys):
    code, out, err = run(capsys, "extract", "(a + b)", "--at", "2")
    assert code == 2 and not out and "bad path" in err
    code, out, _ = run(capsys, "extract", "(a + b)", "--at", "1")
    assert code == 0 and out.splitlines()[:2] == ["index 1", "rest (a + JJ)"]


# ---------------------------------------------------------------------------
# sentence parsing


def test_parse_sentence_readings(capsys):
    code, out, _ = run(capsys, "parse", TOY_LEX, "john walks", "s")
    assert code == 0
    assert "1 reading(s)" in out
    code, out, _ = run(capsys, "parse", TOY_LEX, "john sees mary", "s")
    assert code == 0 and "1 reading(s)" in out


def test_parse_sentence_no_reading(capsys):
    code, out, _ = run(capsys, "parse", TOY_LEX, "walks john", "s")
    assert code == 1 and "0 reading(s)" in out


def test_parse_empty_sentence_proves_the_unit(capsys):
    code, out, _ = run(capsys, "parse", TOY_LEX, "", "I")
    assert code == 0 and "1 reading(s)" in out


def test_parse_unknown_word(capsys):
    code, _, err = run(capsys, "parse", TOY_LEX, "john flies", "s")
    assert code == 2 and "flies" in err


def test_parse_explicit_config(capsys):
    code, out, _ = run(
        capsys, "parse", TOY_LEX, "john walks", "s", "--config", "n, (n \\ s)"
    )
    assert code == 0 and "1 reading(s)" in out


def test_lexicon_signature_errors_give_the_file_line(capsys, tmp_path):
    # the signature's lines were numbered within the section, blank lines
    # and comments skipped, so this error named line 2
    lexicon = tmp_path / "bad.lex"
    lexicon.write_text("# a comment\n%% signature\nn 0\n\nBad 0\n%% lexicon\nx\tn\n")
    code, out, err = run(capsys, "parse", str(lexicon), "x", "n")
    assert (code, out, err) == (2, "", "error: signature line 5: bad atom name 'Bad'\n")


def test_lexicon_type_errors_give_the_file_line(capsys, tmp_path):
    # the type parser's message named no line
    lexicon = tmp_path / "bad.lex"
    for entry, error in (
        ("y\t(n / m)", "atom 'm' not declared in signature"),
        ("z\t(n /", "expected a type at position 4 (near 'end')"),
        ("w\t(n @2 n)", "@2 on sort-0 left operand"),
    ):
        # a text is parsed once, so the same bad text on a second line is
        # still reported at its first
        for entries in (entry, entry + "\nv" + entry[1:]):
            lexicon.write_text("# a comment\n%% signature\nn 0\n%% lexicon\n" + entries + "\n")
            code, out, err = run(capsys, "parse", str(lexicon), "x", "n")
            assert (code, out, err) == (2, "", "error: line 5: %s\n" % error)


def test_load_lexicon_gives_equal_types_one_object(tmp_path):
    lexicon = tmp_path / "shared.lex"
    lexicon.write_text(
        "%% signature\nn 0\ns 0\n%% lexicon\n"
        "x\t(n \\ s)\ny\t(n \\ s)\nx\t( n\\s )\nz\tn\nx\tn\ny\t(n / n)\n"
    )
    _, entries = cli.load_lexicon(str(lexicon))
    assert {w: [str(t) for t in ts] for w, ts in entries.items()} == {
        "x": ["n\\s", "n\\s", "n"], "y": ["n\\s", "n/n"], "z": ["n"],
    }
    under, over = entries["y"]
    assert entries["x"][0] is under and entries["x"][1] is under  # a second text, an equal type
    assert entries["x"][2] is entries["z"][0] and over is not under


AMBIGUOUS_LEX = "%% signature\nn 0\n%% lexicon\nx\tn\nx\t(n / n)\nx\t(n \\ n)\n"


def test_the_shared_parser_keeps_no_state_between_calls(capsys, tmp_path):
    lexicon = tmp_path / "ambiguous.lex"
    lexicon.write_text(AMBIGUOUS_LEX)
    calls = (
        ["parse", str(lexicon), "x x x", "n", "--limit", "1"],
        ["parse", str(lexicon), "x x x", "n"],  # the default --limit 16 again
        ["sharp", "(II + a)"],
    )
    results = [run(capsys, *argv) for argv in calls]
    assert [out.split("\n")[0] for _, out, _ in results] == ["3 reading(s)", "8 reading(s)", "a"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for argv, result in zip(calls, results):
        fresh = subprocess.run(
            [sys.executable, "-m", "dcalc", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == result, argv


def test_a_closed_stdout_exits_2(tmp_path):
    lexicon = tmp_path / "ambiguous.lex"
    lexicon.write_text(AMBIGUOUS_LEX)
    command = [sys.executable, "-m", "dcalc", "parse", str(lexicon)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    # a short output stays in stdout's buffer until main flushes it into a
    # pipe whose reader is already gone
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(command + ["x x x", "n"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: output closed\n")
    # `| head -c 10`: the reader takes 10 bytes of a 147 kB JSON text and goes,
    # so the write, larger than the pipe's buffer, fails inside the command
    proc = subprocess.Popen(command + ["x x x x x", "n", "--out", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "deriv'
    proc.stdout.close()
    assert (proc.wait(), proc.stderr.read()) == (2, b"error: output closed\n")
    proc.stderr.close()


def test_json_output_is_the_dict_path_text(capsys, sig_file, tmp_path, monkeypatch):
    # the oracle writes derivation_to_obj's dicts with json.dumps; the bytes
    # must agree, also where the readings of "x x x x" share subderivations
    lexicon = tmp_path / "ambiguous.lex"
    lexicon.write_text(AMBIGUOUS_LEX)
    calls = (
        ["parse", str(lexicon), "x x x x", "n", "--out", "json"],
        ["prove", "md", "((n + ((n \\ s) / n)) + n) -> s", "--sig", sig_file, "--out", "json"],
    )
    results = [run(capsys, *argv) for argv in calls]
    assert json.loads(results[0][1])["readings"] == 40
    monkeypatch.setattr(
        cli, "json_text", lambda v: json.dumps(v, default=derivation_to_obj, indent=2, sort_keys=True)
    )
    for argv, result in zip(calls, results):
        assert result[0] == 0 and run(capsys, *argv) == result, argv


def test_parse_json_is_that_of_a_search_per_assignment(capsys, tmp_path):
    # the lexical assignments share one search memo; the bytes must be those
    # of one search per assignment, written by json.dumps, up to x^6's 250 kB
    lexicon = tmp_path / "ambiguous.lex"
    lexicon.write_text(AMBIGUOUS_LEX)
    sig, _ = cli.load_lexicon(str(lexicon))
    entries = [("x", "n"), ("x", "(n / n)"), ("x", "(n \\ n)")]
    sizes = []
    for limit in (1, 16):
        for k in range(7):
            sentence = " ".join(["x"] * k)
            code, out, err = run(capsys, "parse", str(lexicon), sentence, "n", "--out", "json", "--limit", str(limit))
            assert (code, err) == ((0, "") if k else (1, ""))
            assert out == parent_parse_json(sig, entries, sentence, "n", limit=limit)
            sizes.append(len(out))
    assert sizes[-1] > 240000


def test_parse_limit(capsys):
    code, out, _ = run(capsys, "parse", TOY_LEX, "john walks", "s", "--limit", "1")
    assert code == 0 and "1 reading(s)" in out
    for flag in (["--limit", "0"], ["--limit=-2"]):
        code, out, err = run(capsys, "parse", TOY_LEX, "john sees mary", "s", *flag)
        assert code == 2 and out == ""
        assert err.startswith("error: limit must be at least 1")
