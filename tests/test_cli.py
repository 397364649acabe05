import io
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "morgankit", *args],
        input=stdin, capture_output=True, text=True, env=env)


def test_decide_exit_codes():
    assert run_cli("decide", "--calculus", "g3dm", "~~p => p").returncode == 0
    assert run_cli("decide", "--calculus", "g3sdm", "p => ~~p").returncode == 1


def test_decide_parse_error_is_exit_2():
    r = run_cli("decide", "--calculus", "g3sdm", "p => (q")
    assert r.returncode == 2
    assert "position" in r.stderr


def test_namespace_error_is_exit_2():
    r = run_cli("decide", "--calculus", "g3sdm", "p' => p'")
    assert r.returncode == 2


def test_prove_prints_derivation():
    r = run_cli("prove", "--calculus", "g3sdm", "~~~p => ~p")
    assert r.returncode == 0
    assert "[=>~]" in r.stdout
    r = run_cli("prove", "--calculus", "g3sdm", "p => ~~p")
    assert r.returncode == 1
    assert "NOT DERIVABLE" in r.stdout


def test_prove_and_decide_agree():
    for text, want in [("~~p => p", 0), ("=> p | ~p", 1)]:
        a = run_cli("prove", "--calculus", "g3dm", text).returncode
        b = run_cli("decide", "--calculus", "g3dm", text).returncode
        assert a == b == want


def test_prove_json_roundtrips_through_render(tmp_path):
    r = run_cli("prove", "--calculus", "g3dm", "~(p & q) => ~p | ~q",
                "--format", "json")
    assert r.returncode == 0
    proof = tmp_path / "proof.json"
    proof.write_text(r.stdout)
    r2 = run_cli("render", "--format", "json", str(proof))
    assert r2.returncode == 0
    assert json.loads(r2.stdout) == json.loads(r.stdout)
    r3 = run_cli("render", "--format", "latex", str(proof))
    assert r3.returncode == 0
    assert r3.stdout.startswith(r"\begin{prooftree}")


def test_render_malformed_proof_is_exit_2():
    r = run_cli("render", stdin='{"schema": "morgan-kit/proof/v1", "calculus": "int"}')
    assert r.returncode == 2
    assert "'derivation'" in r.stderr and "Traceback" not in r.stderr
    r = run_cli("prove", "--calculus", "g3ip", "p & q => q & p", "--format", "json")
    obj = json.loads(r.stdout)
    del obj["derivation"]["premisses"][0]["rule"]
    r = run_cli("render", stdin=json.dumps(obj))
    assert r.returncode == 2
    assert "derivation.premisses[0]: missing key 'rule'" in r.stderr


def test_render_checks_the_proof_calculus():
    r = run_cli("prove", "--calculus", "g3sdm", "~~~p => ~p", "--format", "json")
    obj = json.loads(r.stdout)
    assert run_cli("render", stdin=json.dumps(obj)).returncode == 0
    for calculus, message in (("dm", "calculus 'dm', but the root is sdm"),
                              (5, "proof: key 'calculus' holds an int, not a string"),
                              (None, "missing key 'calculus'")):
        if calculus is None:
            del obj["calculus"]
        else:
            obj["calculus"] = calculus
        r = run_cli("render", stdin=json.dumps(obj))
        assert r.returncode == 2, calculus
        assert message in r.stderr and "Traceback" not in r.stderr



def test_render_names_the_node_of_a_bad_sequent():
    proof = run_cli("prove", "--calculus", "g3sdm", "p & q => p", "--format", "json").stdout
    for spoil, message in (
            (lambda s: s["succedent"].update(star=1),
             ".succedent: key 'star' holds an int, not a boolean"),
            (lambda s: s.update(calculus=["sdm"]), ": unknown calculus ['sdm']"),
            (lambda s: s["succedent"]["term"].update(ns="weird"),
             ".succedent: unknown namespace 'weird'"),
            (lambda s: s["antecedent"].insert(0, 5), ".antecedent[0]: an int has no key 'term'")):
        obj = json.loads(proof)
        spoil(obj["derivation"]["premisses"][0]["sequent"])
        r = run_cli("render", stdin=json.dumps(obj))
        assert r.returncode == 2, message
        assert "derivation.premisses[0].sequent" + message in r.stderr
        assert "Traceback" not in r.stderr


def test_render_rejects_an_antecedent_that_is_not_a_list():
    obj = json.loads(run_cli("prove", "--calculus", "g3dm", "=> ~F", "--format", "json").stdout)
    obj["derivation"]["sequent"]["antecedent"] = {}
    r = run_cli("render", stdin=json.dumps(obj))
    assert r.returncode == 2
    assert "derivation.sequent: key 'antecedent' holds an object, not a list" in r.stderr
    assert "Traceback" not in r.stderr


def test_render_rejects_an_unknown_op():
    obj = json.loads(run_cli("prove", "--calculus", "g3dm", "=> ~F", "--format", "json").stdout)
    obj["derivation"]["sequent"]["succedent"]["term"] = {"op": "xor"}
    r = run_cli("render", stdin=json.dumps(obj))
    assert r.returncode == 2
    assert "derivation.sequent.succedent: unknown op 'xor'" in r.stderr
    assert "Traceback" not in r.stderr


def test_batch_mode_jsonl():
    r = run_cli("decide", "--calculus", "g3dm", "--batch",
                stdin="~~p => p\np => q\nbad (\n")
    assert r.returncode == 0
    lines = [json.loads(line) for line in r.stdout.splitlines()]
    assert lines[0]["derivable"] is True
    assert lines[1]["derivable"] is False
    assert "error" in lines[2]


# --batch reads sequents from stdin and always writes JSON lines, so every
# argument it would ignore is a usage error.
def test_batch_rejects_a_sequent_argument():
    for cmd in ("decide", "prove"):
        r = run_cli(cmd, "--batch", "p => p", stdin="p => p\n")
        assert r.returncode == 2, cmd
        assert "--batch takes no sequent" in r.stderr and r.stdout == ""


def test_batch_rejects_height():
    r = run_cli("prove", "--batch", "--height", "3", stdin="p => p\n")
    assert r.returncode == 2
    assert "--batch takes no --height" in r.stderr and r.stdout == ""


def test_batch_rejects_an_explicit_format():
    for fmt in ("ascii", "latex", "json"):
        r = run_cli("prove", "--batch", "--format", fmt, stdin="p => p\n")
        assert r.returncode == 2, fmt
        assert "--batch takes no --format" in r.stderr and r.stdout == ""
    r = run_cli("prove", "--batch", stdin="p => p\n")
    assert r.returncode == 0
    assert json.loads(r.stdout)["proof"]["schema"] == "morgan-kit/proof/v1"


def test_decide_has_no_format():
    r = run_cli("decide", "p => p", "--format", "ascii")
    assert r.returncode == 2
    assert "--format" in r.stderr


def test_translate_f_pin():
    r = run_cli("translate", "--map", "f", "p | q")
    assert r.returncode == 0
    assert r.stdout.strip() == "~~(~~p | ~~q)"


def test_translate_k_writes_registry(tmp_path):
    reg = tmp_path / "registry.json"
    r = run_cli("translate", "--map", "k", "~~(p | q)", "--registry", str(reg))
    assert r.returncode == 0
    assert r.stdout.strip() == "#k0"
    obj = json.loads(reg.read_text())
    assert obj["entries"][0]["representative"] == "~~(p | q)"


def test_translate_k_prints_atoms_and_hypotheses():
    # a term that is 1 in every SDM algebra maps to an atom, not to T
    r = run_cli("translate", "--map", "k", "~(p & F)")
    assert (r.returncode, r.stdout) == (0, "#k0\n")
    r = run_cli("translate", "--map", "k", "*~~~q => *~(q | (r | r))")
    assert (r.returncode, r.stdout) == (0, "q'', q'' -> #k0 => #k0\n")


def test_registry_needs_map_k(tmp_path):
    # only k introduces atoms; with another map nothing is saved
    reg = tmp_path / "registry.json"
    for mapping, text in (("f", "p => q"), ("t", "*p => q"), ("nn", "~p")):
        r = run_cli("translate", "--map", mapping, text, "--registry", str(reg))
        assert r.returncode == 2, mapping
        assert "--registry takes only --map k" in r.stderr and r.stdout == ""
    assert not reg.exists()


# map: (calculus it reads, a term -- a structure for t -- and a sequent)
_TRANSLATE_INPUTS = {
    "t": ("sdm", "*(p & ~q)", "*p, q => *~p"),
    "f": ("dm", "p | ~(q & F)", "p, ~q => p | q"),
    "nn": ("dm", "~p & q", "p, ~q => p | q"),
    "k": ("sdm", "~(p & q) | ~~(p | q)", "*~(p & q), q => *~~(p | r)"),
    "h": ("dm", "~(p & ~q)", "~~p, ~(p | q) => ~p & q"),
    "g": ("cl", "p -> q | F", "p -> q, p => q"),
}


@pytest.mark.parametrize("mapping", sorted(_TRANSLATE_INPUTS))
def test_translate_matches_the_library(mapping):
    import morgankit as m
    from morgankit.syntax import INT_CL, SDM_DM
    from morgankit.translations import nn_sequent
    images = {  # map: (term image, sequent image)
        "t": (m.t_flatten, m.t_sequent),
        "f": (m.f_godel_gentzen, m.f_sequent),
        "nn": (m.double_negate, nn_sequent),
        "k": (lambda x: m.k_to_int(x, m.ClassRegistry()),
              lambda x: m.k_sequent(x, m.ClassRegistry())),
        "h": (m.h_to_cl, m.h_sequent),
        "g": (m.g_glivenko, m.g_sequent),
    }
    calc, term_text, sequent_text = _TRANSLATE_INPUTS[mapping]
    on_term, on_sequent = images[mapping]
    if mapping == "t":
        term = m.parse_structure(term_text)
    else:
        term = m.parse_term(term_text, INT_CL if calc == "cl" else SDM_DM)
    r = run_cli("translate", "--map", mapping, term_text)
    assert (r.returncode, r.stdout) == (0, m.print_term(on_term(term)) + "\n")
    s = m.parse_sequent(sequent_text, calc)
    r = run_cli("translate", "--map", mapping, sequent_text)
    assert (r.returncode, r.stdout) == (0, m.print_sequent(on_sequent(s)) + "\n")


def test_translate_sequents():
    r = run_cli("translate", "--map", "t", "*p, q => *~p")
    assert r.stdout.strip() == "q & ~p => ~~p"
    r = run_cli("translate", "--map", "g", "p => q")
    assert r.stdout.strip() == "p -> F -> F => q -> F -> F"


def test_interpolate_command():
    r = run_cli("interpolate", "--calculus", "g3sdm", "p ; q => p")
    assert r.returncode == 0
    assert "interpolant: p" in r.stdout
    r = run_cli("interpolate", "--calculus", "g3sdm", "q ; p => p")
    assert "interpolant: *F" in r.stdout
    r = run_cli("interpolate", "--calculus", "g3ip", "p ; q => p")
    assert r.returncode == 2 and "runs on g3sdm or g3dm" in r.stderr


def test_validity_command():
    r = run_cli("validity", "--variety", "sdm", "--max-size", "4", "p => ~~p")
    assert r.returncode == 1
    assert "refuted" in r.stdout
    r = run_cli("validity", "--variety", "sdm", "--max-size", "4", "p => p")
    assert r.returncode == 0


def test_algebra_commands():
    r = run_cli("algebra", "dm4")
    obj = json.loads(r.stdout)
    assert obj["schema"] == "morgan-kit/algebra/v1"
    assert obj["size"] == 4
    r = run_cli("algebra", "enumerate", "--variety", "dm", "--max-size", "3")
    assert len(r.stdout.splitlines()) == 2  # the 2-chain and the Kleene 3-chain


def test_corpus_reproducible():
    a = run_cli("corpus", "--calculus", "g3sdm", "--seed", "7", "--count", "20")
    b = run_cli("corpus", "--calculus", "g3sdm", "--seed", "7", "--count", "20")
    assert a.stdout == b.stdout
    assert len(a.stdout.splitlines()) == 20
    c = run_cli("corpus", "--calculus", "g3sdm", "--seed", "8", "--count", "20")
    assert c.stdout != a.stdout


def test_check_embedding_command():
    r = run_cli("check-embedding", "--kind", "dm-to-cl-h", "--count", "40",
                "--seed", "3", "--max-weight", "14")
    assert r.returncode == 0
    assert "agreement: 40/40" in r.stdout


def test_deep_input_is_exit_2():
    from morgankit.syntax import MAX_NESTING
    r = run_cli("decide", "--calculus", "g3sdm", "~" * 1000 + "p => p")
    assert r.returncode == 2
    assert "position" in r.stderr and "Traceback" not in r.stderr
    term = {"op": "var", "name": "p"}
    for _ in range(MAX_NESTING + 1):
        term = {"op": "neg", "arg": term}
    member = {"star": False, "term": term}
    proof = {"schema": "morgan-kit/proof/v1", "calculus": "dm", "derivation": {
        "sequent": {"schema": "morgan-kit/ast/v1", "calculus": "dm",
                    "antecedent": [member], "succedent": member},
        "rule": "Id1", "principal": None, "height": 0, "premisses": []}}
    r = run_cli("render", stdin=json.dumps(proof))
    assert r.returncode == 2
    assert "nested deeper" in r.stderr and "Traceback" not in r.stderr
    # too deep for the JSON decoder itself
    r = run_cli("render", stdin="[" * 100000 + "]" * 100000)
    assert r.returncode == 2
    assert "nested too deeply" in r.stderr and "Traceback" not in r.stderr


def test_term_at_the_nesting_limit_decides():
    from morgankit.syntax import MAX_NESTING
    deep = "~" * MAX_NESTING + "p"
    r = run_cli("decide", "--calculus", "g3sdm", f"{deep} => {deep}")
    assert r.returncode == 0 and r.stdout.strip() == "derivable"
    r = run_cli("prove", "--calculus", "g3dm", f"{deep} => p", "--format", "json")
    assert r.returncode == 0
    assert run_cli("render", stdin=r.stdout).returncode == 0


def test_search_past_the_recursion_limit_is_exit_2():
    from morgankit.syntax import MAX_NESTING
    # each member is within MAX_NESTING, but search recurses once per rule
    # while it compares sort keys MAX_NESTING deep
    deep = ", ".join("~" * MAX_NESTING + v for v in "pqrstuvw") + " => p"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def start(*args):
        return subprocess.Popen([sys.executable, "-m", "morgankit", *args],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env)

    decide = start("decide", "--calculus", "g3sdm", deep)
    batch = start("decide", "--calculus", "g3sdm", "--batch")
    out, err = decide.communicate(timeout=300)
    assert decide.returncode == 2 and out == ""
    assert "recursion limit" in err and "Traceback" not in err
    # the batch reports the line and goes on to the next
    out, err = batch.communicate(f"p => p\n{deep}\nq => p\n", timeout=300)
    assert batch.returncode == 0 and err == ""
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line.get("derivable") for line in lines] == [True, None, False]
    assert "recursion limit" in lines[1]["error"]


def test_height_past_the_recursion_limit_is_exit_2():
    r = run_cli("prove", "--calculus", "g3cp", "--height", "3000", "(p -> F) -> F => p")
    assert r.returncode == 2 and r.stdout == ""
    assert "recursion limit" in r.stderr and "Traceback" not in r.stderr


def test_render_proof_that_does_not_replay_is_exit_2():
    # a user's proof that fails replay is an input error; prove keeps exit 3
    # for its own derivations (test_prove_bad_derivation_is_exit_3)
    r = run_cli("prove", "--calculus", "g3ip", "p & q => q & p", "--format", "json")
    obj = json.loads(r.stdout)
    assert obj["derivation"]["premisses"][0]["rule"] == "&R"
    obj["derivation"]["premisses"][0]["rule"] = "|R1"
    r = run_cli("render", stdin=json.dumps(obj))
    assert r.returncode == 2 and r.stdout == ""
    assert "does not replay: derivation.premisses[0]: no |R1 instance" in r.stderr
    assert "Traceback" not in r.stderr


def test_decide_without_sequent_is_usage_error():
    r = run_cli("decide", "--calculus", "g3sdm")
    assert r.returncode == 2
    assert "usage:" in r.stderr and "Traceback" not in r.stderr


def test_prove_without_sequent_is_usage_error():
    r = run_cli("prove", "--calculus", "g3dm", "--height", "3")
    assert r.returncode == 2
    assert "usage:" in r.stderr and "Traceback" not in r.stderr


def test_render_missing_file_is_exit_2(tmp_path):
    r = run_cli("render", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    assert "missing.json" in r.stderr and "Traceback" not in r.stderr


def test_check_embedding_missing_input_is_exit_2(tmp_path):
    r = run_cli("check-embedding", "--kind", "dm-to-cl-h",
                "--input", str(tmp_path / "missing.txt"))
    assert r.returncode == 2
    assert "missing.txt" in r.stderr and "Traceback" not in r.stderr


def test_check_embedding_input_names_the_failing_line(tmp_path, capsys):
    from morgankit.cli import main
    sequents = tmp_path / "sequents.txt"
    # the blank line counts, as the file numbers its lines
    sequents.write_text("p => p\n\nq & => q\n")
    assert main(["check-embedding", "--kind", "sdm-to-int-k",
                 "--input", str(sequents)]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 3: expected a term, found '=>' (at position 4)\n")


def test_translate_unwritable_registry_is_exit_2(tmp_path):
    reg = tmp_path / "no-such-dir" / "registry.json"
    r = run_cli("translate", "--map", "k", "~~(p | q)", "--registry", str(reg))
    assert r.returncode == 2
    assert "registry.json" in r.stderr and "Traceback" not in r.stderr


def test_prove_below_min_height_is_not_derivable(capsys):
    from morgankit.cli import main
    assert main(["prove", "--height", "2", "~p => ~p"]) == 1
    assert capsys.readouterr().out == "NOT DERIVABLE\n"


def test_prove_at_min_height_prints_a_proof(capsys):
    from morgankit.cli import main
    assert main(["prove", "--height", "3", "~p => ~p"]) == 0
    assert capsys.readouterr().out.endswith("~p => ~p   [=>~]\n")


def test_negative_height_is_usage_error():
    r = run_cli("prove", "p => p", "--height", "-1")
    assert r.returncode == 2
    assert "--height" in r.stderr and "NOT DERIVABLE" not in r.stdout


def test_negative_count_is_usage_error():
    for command in (["corpus"], ["check-embedding", "--kind", "dm-to-cl-h"]):
        r = run_cli(*command, "--count", "-1")
        assert r.returncode == 2, command
        assert "--count" in r.stderr and "islice" not in r.stderr, command


def test_max_depth_is_not_an_option():
    # both commands generate at the corpus default depth of 3
    for command in (["corpus"], ["check-embedding", "--kind", "dm-to-cl-h"]):
        r = run_cli(*command, "--max-depth", "3")
        assert r.returncode == 2, command
        assert "--max-depth" in r.stderr and r.stdout == "", command


def test_unreachable_max_weight_is_exit_2_not_a_hang():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for weight, args in (
            (0, ["corpus", "--calculus", "g3sdm", "--max-weight", "0", "--count", "1"]),
            (0, ["check-embedding", "--kind", "dm-to-cl-h", "--max-weight", "0"]),
            # p => p, => *F and => ~F weigh 2: the lightest derivable goals
            (1, ["corpus", "--calculus", "g3sdm", "--max-weight", "1", "--count", "1",
                 "--derivable"]),
            (1, ["corpus", "--calculus", "g3dm", "--max-weight", "1", "--count", "1",
                 "--derivable"])):
        r = subprocess.run([sys.executable, "-m", "morgankit", *args],
                           capture_output=True, text=True, env=env, timeout=60)
        assert r.returncode == 2, args
        assert f"max weight {weight}" in r.stderr and "Traceback" not in r.stderr, args
    # the bound 1 admits `=> p`, the lightest goal with no antecedent member
    r = run_cli("corpus", "--calculus", "g3sdm", "--max-weight", "1", "--count", "1")
    assert r.returncode == 0 and "=>" in r.stdout
    from morgankit.corpus import CorpusConfig, generate_sequents
    cfg = CorpusConfig(min_antecedent=2)
    with pytest.raises(ValueError, match="lightest has weight 3"):
        generate_sequents("dm", 1, cfg, max_weight=2)
    assert len(generate_sequents("dm", 1, cfg, max_weight=3)) == 1


def test_closed_stdout_is_not_an_input_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-m", "morgankit", "prove", "p => p", "--format", "latex"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()  # before the child has started to write
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 141  # 128 + SIGPIPE, as a shell reports it
    assert err == b""


def test_render_rejects_malformed_variable_names(tmp_path, capsys):
    from morgankit import derive, parse_sequent, proof_to_obj
    from morgankit.cli import main
    proof = tmp_path / "proof.json"
    for name, ns in [(5, "base"), ("p q", "base"), ("=>", "base"), ("", "base"),
                     ("F", "base"), ("4", "class")]:
        obj = proof_to_obj(derive("dm", parse_sequent("p => p", "dm")))
        obj["derivation"]["sequent"]["succedent"]["term"].update(name=name, ns=ns)
        proof.write_text(json.dumps(obj))
        assert main(["render", str(proof)]) == 2, (name, ns)
        assert "variable name" in capsys.readouterr().err


_REPLACEMENTS = [None, True, False, 0, 1, -1, 2, 1.5, "", "p", "sdm", "int", "neg", "Id", [], {}]


def _spoil(rng, obj):
    """obj with one value, at any depth, deleted or replaced: by a JSON value
    of any type, by a copy of another value inside obj, or, for an int, by
    the bool or float equal to it."""
    slots = []
    stack = [obj]
    while stack:
        x = stack.pop()
        keys = x if isinstance(x, dict) else range(len(x)) if isinstance(x, list) else ()
        for k in keys:
            slots.append((x, k))
            stack.append(x[k])
    node, key = rng.choice(slots)
    old, r = node[key], rng.random()
    if r < 0.2:
        node.pop(key)
    elif r < 0.3 and type(old) is int:
        node[key] = bool(old) if old in (0, 1) else float(old)
    elif r < 0.6:
        node[key] = json.loads(json.dumps(rng.choice(slots)[0]))
    else:
        node[key] = json.loads(json.dumps(rng.choice(_REPLACEMENTS)))
    return obj


def test_render_of_spoiled_proofs_exits_0_or_2(monkeypatch, capsys):
    from morgankit import derive, proof_from_obj, proof_to_obj
    from morgankit.cli import main
    from morgankit.corpus import CorpusConfig, generate_sequents
    with open(os.path.join(os.path.dirname(__file__), "data", "sdm_proofs_v1.jsonl")) as fh:
        texts = [line.strip() for line in fh]
    for calc in ("int", "cl", "dm"):
        for goal in generate_sequents(calc, 60, CorpusConfig(seed=30, max_depth=2)):
            d = derive(calc, goal)
            if d is not None:
                texts.append(json.dumps(proof_to_obj(d)))
    rng = random.Random(30)
    exits = Counter()
    for _ in range(450):
        text = json.dumps(_spoil(rng, json.loads(rng.choice(texts))))
        for fmt in ("ascii", "json"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            status = main(["render", "--format", fmt])
            out = capsys.readouterr().out
            assert status in (0, 2), (status, fmt, text)
            if status == 0 and fmt == "json":
                proof_from_obj(json.loads(out))
            exits[status] += 1
    assert exits[0] >= 50 and exits[2] >= 700, exits


def test_prove_bad_derivation_is_exit_3(monkeypatch, capsys):
    from morgankit import Derivation, cli, parse_sequent, search
    good = search.derive("sdm", parse_sequent("p => p", "sdm"))
    bad = Derivation(good.sequent, good.rule, good.principal, (), good.height + 1)
    monkeypatch.setattr(search, "derive", lambda calc, goal: bad)
    assert cli.main(["prove", "p => p"]) == 3
    assert "check failure" in capsys.readouterr().err


def test_import_loads_no_dataclasses_inspect_or_json():
    # compared with the modules loaded before the import, so a site hook
    # that loads one of them does not count
    code = ("import sys; before = set(sys.modules); import morgankit; "
            "added = {'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before); "
            "print(' '.join(sorted(added)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", code],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""


@pytest.mark.parametrize("module", ["threading", "typing", "random"])
def test_import_loads_no_threading(module):
    # -S: no site hook preloads the module, so the import alone is measured
    code = ("import sys; before = set(sys.modules); import morgankit; "
            f"print({module!r} in set(sys.modules) - before)")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-S", "-c", code],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
