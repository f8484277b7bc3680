"""README's examples run as written.

The Library quick start is executed line by line, and each `# value`
comment whose first word is a Python literal is compared with the value
of its line. The command lines of the Examples section run through
`cli.main` on the README's own `p2.json`, `sys.json`, `thm.json` and
`pres.json`: each exits 0, a comment that is a JSON document is the
whole output, and the other stated results are checked by verb.
"""

import ast
import json
import re
import shlex
from pathlib import Path

from polyadic import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# what the Examples' comments state, by verb: (comment text, check)
CLAIMS = {
    "validate": ("ok: true, exit 0", lambda doc: doc["ok"] is True),
    "skew": ("every element its own skew", lambda doc: all(k == v for k, v in doc["skew"].items())),
    "postcover": ("order 6", lambda doc: doc["order"] == 6),
    "homs": ("9 maps", lambda doc: doc["count"] == 9),
    "thm63": ("exit 0", lambda doc: doc["ok"] is True),
    "cosets": ("order 2", lambda doc: doc["order"] == 2),
    "freereduce": ("height 4, member", lambda doc: (doc["height"], doc["f_pol_member"]) == (4, True)),
}


def section(start, end):
    return README[README.index(start):README.index(end)]


def blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def documents():
    """The example files, by name, as the README gives them."""
    text = section("### Examples", "## File formats")
    docs = {
        name: re.search(rf"in `{re.escape(name)}`.*?```json\n(.*?)```", text, re.S).group(1)
        for name in ("p2.json", "sys.json", "pres.json")
    }
    docs["thm.json"] = re.search(r"With `thm\.json` as\s*`(\{.*?\})`", text, re.S).group(1)
    return {name: json.loads(doc) for name, doc in docs.items()}


def commands():
    """(argv, comment) for each `polyadic` line of the Examples, the
    comment being the line's own or the comment line below it."""
    out = []
    for block in blocks(section("### Examples", "## File formats"), "sh"):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            comment = line.partition(" # ")[2].strip() if " # " in line else ""
            if argv and argv[0] == "polyadic":
                out.append([argv[1:], comment])
            elif line.startswith("#") and out and not out[-1][1]:
                out[-1][1] = line[1:].strip()
    return out


def test_quick_start_values():
    namespace = {}
    checked = 0
    for code in blocks(section("## Library quick start", "## Command line"), "python"):
        for stmt in ast.parse(code).body:
            source = ast.get_source_segment(code, stmt)
            comment = code.splitlines()[stmt.end_lineno - 1].partition("#")[2].split()
            try:
                want = ast.literal_eval(comment[0].rstrip(";,"))
            except (IndexError, ValueError, SyntaxError):
                exec(source, namespace)
                continue
            assert isinstance(stmt, ast.Expr), source
            assert eval(source, namespace) == want, source
            checked += 1
    assert checked == 3


def test_examples_run_as_stated(tmp_path, monkeypatch, capsys):
    for name, doc in documents().items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = commands()
    verbs = [argv[0] for argv, _ in runs]
    assert set(CLAIMS) | {"solve", "present2group"} <= set(verbs)
    for argv, comment in runs:
        status = cli.main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert status == 0, (argv, doc)
        if comment.startswith("{"):
            assert doc == json.loads(comment), argv
        elif argv[0] in CLAIMS:
            text, check = CLAIMS[argv[0]]
            assert text in comment, (argv, comment)
            assert check(doc), (argv, doc)

